//! Protocol drivers: complete Kerberos exchanges over the simulated
//! network, with every message transmitted (and therefore counted) on a
//! [`netsim::Network`].
//!
//! These are the flows the F2/F3 experiments measure and the examples
//! narrate; tests and benches share them instead of re-wiring the message
//! sequence each time.

use netsim::{EndpointId, Network};
use rand::RngCore;

use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::RestrictionSet;

use crate::client::{Client, Credentials};
use crate::error::KrbError;
use crate::kdc::Kdc;
use crate::server::{Accepted, ApServer};

/// The KDC's network endpoint name.
#[must_use]
pub fn kdc_endpoint() -> EndpointId {
    EndpointId::new("KDC")
}

fn ep(p: &PrincipalId) -> EndpointId {
    EndpointId::new(p.as_str())
}

/// AS exchange over the network: 2 messages.
///
/// # Errors
///
/// Propagates [`KrbError`] from the KDC or reply processing.
pub fn login_flow<R: RngCore>(
    client: &mut Client,
    kdc: &Kdc,
    restrictions: RestrictionSet,
    lifetime: u64,
    net: &mut Network,
    rng: &mut R,
) -> Result<Credentials, KrbError> {
    let me = ep(client.name());
    net.transmit(&me, &kdc_endpoint(), b"AS-REQ");
    let tgt = client.login(kdc, restrictions, lifetime, net.now(), rng)?;
    net.transmit(&kdc_endpoint(), &me, &tgt.ticket_blob);
    Ok(tgt)
}

/// TGS exchange over the network: 2 messages.
///
/// # Errors
///
/// Propagates [`KrbError`] from the KDC or reply processing.
#[allow(clippy::too_many_arguments)]
pub fn service_ticket_flow<R: RngCore>(
    client: &mut Client,
    kdc: &Kdc,
    tgt: &Credentials,
    service: PrincipalId,
    additional_restrictions: RestrictionSet,
    lifetime: u64,
    net: &mut Network,
    rng: &mut R,
) -> Result<Credentials, KrbError> {
    let me = ep(client.name());
    net.transmit(&me, &kdc_endpoint(), b"TGS-REQ");
    let creds = client.get_service_ticket(
        kdc,
        tgt,
        service,
        additional_restrictions,
        lifetime,
        net.now(),
        rng,
    )?;
    net.transmit(&kdc_endpoint(), &me, &creds.ticket_blob);
    Ok(creds)
}

/// AP exchange over the network: 1 message (ticket + authenticator).
///
/// # Errors
///
/// Propagates [`KrbError`] from the server.
pub fn ap_flow<R: RngCore>(
    client: &Client,
    creds: &Credentials,
    server: &mut ApServer,
    net: &mut Network,
    rng: &mut R,
) -> Result<Accepted, KrbError> {
    let authenticator = client.make_authenticator(creds, net.now(), rng);
    let mut payload = creds.ticket_blob.clone();
    payload.extend_from_slice(&authenticator);
    net.transmit(&ep(client.name()), &ep(server.name()), &payload);
    server.accept(&creds.ticket_blob, &authenticator, net.now())
}

/// Full authentication to a service: AS + TGS + AP, 5 messages. Returns
/// the established credentials and acceptance.
///
/// # Errors
///
/// Propagates [`KrbError`] from any stage.
pub fn authenticate_flow<R: RngCore>(
    client: &mut Client,
    kdc: &Kdc,
    server: &mut ApServer,
    net: &mut Network,
    rng: &mut R,
) -> Result<(Credentials, Accepted), KrbError> {
    let tgt = login_flow(client, kdc, RestrictionSet::new(), 100_000, net, rng)?;
    let creds = service_ticket_flow(
        client,
        kdc,
        &tgt,
        server.name().clone(),
        RestrictionSet::new(),
        100_000,
        net,
        rng,
    )?;
    let accepted = ap_flow(client, &creds, server, net, rng)?;
    Ok((creds, accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    struct World {
        rng: StdRng,
        kdc: Kdc,
        alice: Client,
        fs: ApServer,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(1);
        let mut kdc = Kdc::new(&mut rng);
        kdc.max_lifetime = 1_000_000;
        let alice_key = kdc.register(p("alice"), &mut rng);
        let fs_key = kdc.register(p("fs"), &mut rng);
        World {
            rng,
            kdc,
            alice: Client::new(p("alice"), alice_key),
            fs: ApServer::new(p("fs"), fs_key),
        }
    }

    #[test]
    fn full_authentication_is_five_messages() {
        let mut w = world();
        let mut net = Network::new(0);
        let (creds, accepted) =
            authenticate_flow(&mut w.alice, &w.kdc, &mut w.fs, &mut net, &mut w.rng).unwrap();
        assert_eq!(net.total_messages(), 5, "AS(2) + TGS(2) + AP(1)");
        assert_eq!(accepted.client, p("alice"));
        assert_eq!(creds.service, p("fs"));
        assert!(w.fs.session_key(&p("alice")).is_some());
    }

    #[test]
    fn flows_respect_simulated_time() {
        // With 10-tick links, the AP authenticator is stamped at tick 40
        // (after 4 prior transmissions) and must still be in skew at
        // arrival.
        let mut w = world();
        w.fs.skew = 15;
        let mut net = Network::new(0);
        net.set_default_latency(10);
        let result = authenticate_flow(&mut w.alice, &w.kdc, &mut w.fs, &mut net, &mut w.rng);
        assert!(result.is_ok());
        assert_eq!(net.now(), 50);
    }

    #[test]
    fn stale_network_breaks_authentication() {
        // If links are slower than the server's skew allows, the AP
        // exchange fails — the flow surfaces it rather than hiding it.
        let mut w = world();
        w.fs.skew = 5;
        let mut net = Network::new(0);
        net.set_default_latency(10);
        let tgt = login_flow(
            &mut w.alice,
            &w.kdc,
            RestrictionSet::new(),
            1_000,
            &mut net,
            &mut w.rng,
        )
        .unwrap();
        let creds = service_ticket_flow(
            &mut w.alice,
            &w.kdc,
            &tgt,
            p("fs"),
            RestrictionSet::new(),
            1_000,
            &mut net,
            &mut w.rng,
        )
        .unwrap();
        // Authenticator stamped at t=40, arrives t=50; skew 5 → rejected.
        let err = ap_flow(&w.alice, &creds, &mut w.fs, &mut net, &mut w.rng).unwrap_err();
        assert!(matches!(err, KrbError::SkewExceeded { .. }));
    }

    #[test]
    fn tap_sees_only_sealed_bytes() {
        let mut w = world();
        let mut net = Network::new(0);
        net.enable_tap();
        let (creds, _) =
            authenticate_flow(&mut w.alice, &w.kdc, &mut w.fs, &mut net, &mut w.rng).unwrap();
        let key = creds.session_key.as_bytes();
        for record in net.tapped() {
            assert!(
                !record.payload.windows(32).any(|wnd| wnd == key),
                "session key visible on the wire between {} and {}",
                record.from,
                record.to
            );
        }
    }

    #[test]
    fn at_least_once_delivery_is_caught_by_the_replay_cache() {
        // The network duplicates the AP message; the server accepts the
        // first copy and must reject the duplicate.
        let mut w = world();
        let mut net = Network::new(0);
        net.duplicate_next(1);
        let tgt = login_flow(
            &mut w.alice,
            &w.kdc,
            RestrictionSet::new(),
            1_000,
            &mut net,
            &mut w.rng,
        )
        .unwrap();
        let creds = service_ticket_flow(
            &mut w.alice,
            &w.kdc,
            &tgt,
            p("fs"),
            RestrictionSet::new(),
            1_000,
            &mut net,
            &mut w.rng,
        )
        .unwrap();
        let authenticator = w.alice.make_authenticator(&creds, net.now(), &mut w.rng);
        let now = net.now();
        net.transmit(&ep(&p("alice")), &ep(&p("fs")), &authenticator);
        // First copy accepted…
        assert!(w.fs.accept(&creds.ticket_blob, &authenticator, now).is_ok());
        // …the duplicated copy is a replay.
        assert_eq!(
            w.fs.accept(&creds.ticket_blob, &authenticator, now).err(),
            Some(KrbError::ReplayDetected)
        );
    }
}
