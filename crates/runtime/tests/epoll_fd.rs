//! `EpollFd` owns exactly the descriptor `epoll_create1` returned: a
//! process's descriptor table is the same after a thousand instances
//! were created and dropped as before. A binary of its own with one
//! test, so no other test opens or closes descriptors meanwhile.

use proxy_runtime::sys::EpollFd;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn create_and_drop_leaves_the_fd_table_unchanged() {
    drop(EpollFd::create().expect("epoll available on this host"));
    let before = open_fds();
    for _ in 0..1000 {
        drop(EpollFd::create().expect("epoll available on this host"));
    }
    assert_eq!(open_fds(), before);
}
