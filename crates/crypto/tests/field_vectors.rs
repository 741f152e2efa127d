//! Cross-implementation test vectors for GF(2^255−19) and mod-ℓ scalar
//! arithmetic, generated independently with Python's arbitrary-precision
//! integers (see the generator note at the bottom). Each case checks
//! add/mul/invert against the reference results; `invert` is also held to
//! Fermat's `x^(p−2)` on random and edge inputs.

use proptest::prelude::*;

use proxy_crypto::ed25519::field::Fe;
use proxy_crypto::ed25519::scalar::Scalar;

fn fe(hex: &str) -> Fe {
    let mut bytes = [0u8; 32];
    for i in 0..32 {
        bytes[i] = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
    }
    Fe::from_bytes(&bytes)
}

fn sc(hex: &str) -> Scalar {
    let mut bytes = [0u8; 32];
    for i in 0..32 {
        bytes[i] = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
    }
    Scalar::from_bytes_mod_order(&bytes)
}

struct FieldCase {
    a: &'static str,
    b: &'static str,
    sum: &'static str,
    prod: &'static str,
    a_inv: &'static str,
}

const FIELD_CASES: &[FieldCase] = &[
    FieldCase {
        a: "b12f71db1b897a94f8f12026cc0f478ebbe9788e0edfe8d1d4aa8291a503e036",
        b: "7bada6202fc7ab179d883943f45a0beac6fbab097e09eb61da46cd5cd2c3da2b",
        sum: "2cdd17fc4a5026ac957a5a69c06a527882e524988ce8d333aff14fee77c7ba62",
        prod: "c9def5011307f79788a49ca3fb7c8351b1d9bfbbbdaeb59931753e1f9706456e",
        a_inv: "6e59748df4bc0a50a80cea37db0ee522a2828e70b802b1e158510473f627fa2a",
    },
    FieldCase {
        a: "ddac2028254eb7bfcb7378758cecece8a9711170d3e3970fa37e0b531abbf053",
        b: "c4c58ac517020186cedbf829776778b28b7089f9127c88385418800458e0b14d",
        sum: "b472abed3c50b8459a4f719f0354659b35e29a69e65f2048f7968b57729ba221",
        prod: "2b010ba6f450a0835da34f8ba51e7f251776c5df59137b4164f8ec40b302e20b",
        a_inv: "d39e0b8ddeee748256d4e15c56e32e7fce118c448524e8b71ebad7b92716a76c",
    },
    FieldCase {
        a: "a8e7cabe2363d9874a7d65c77867f1a4ff83f444e3eab63302de232892679431",
        b: "10a04b0d5af8abeceed4bbdd159f51c500f3b980ee3b5394347e1c32c6d79b5b",
        sum: "cb8716cc7d5b8574395221a58e06436a0077aec5d1260ac8365c405a583f300d",
        prod: "ad93aa7c4d78715d1bb0389b61b24886821ee1beeb93b1809b76f9dca342516f",
        a_inv: "1e8b9125e0a7f83d2d17140a50be502fd42bcc4aeba8cf14a892aa68c15c9659",
    },
    FieldCase {
        a: "759c4d4886af80e07504c0e178b63eb6c5c81b8e2b997bffd2295b34ab85377a",
        b: "b475245f08ecf97d9d883048a801dd9f495b8b3dccbdfc27c9147bd72c941206",
        sum: "3c1272a78e9b7a5e138df02921b81b560f24a7cbf75678279c3ed60bd8194a00",
        prod: "3fa83c89e71df249d1cc0a3cc6e4f1602cf279a994f69f972d81e9df20341b60",
        a_inv: "7a9dad72b5045ff88a9f14478d8a4edd2d81cbc110be4a36fad76baf4ecf8421",
    },
    FieldCase {
        a: "9799bca9bd0f53ca72dfcb27214fb87aa69b8869685ec149cbcf6889a0152d6b",
        b: "f45f8090371ca9212b11188d62c1c4d31ccab24df3bcad1daad2d619b245b000",
        sum: "8bf93c3af52bfceb9df0e3b483107d4ec3653bb75b1b6f6775a23fa3525bdd6b",
        prod: "451a6ab0457db4142d2848a74fc9f3c653ec98e68ab2a25eac60cad56cb8a53c",
        a_inv: "9ccafffe2ca8dcc1af524c9add0da0e4d353293a387ffa8cc6e39bb082d0750e",
    },
    FieldCase {
        a: "063c4f3f21a8fe615efaa6fb95976c906775109cbfda1b734207abdd29bfea54",
        b: "4b1fdb9befa5a52173aac8cd81f93afcf3e7cd07f35532aad70d5bc4ed844a04",
        sum: "515b2adb104ea483d1a46fc91791a78c5b5ddea3b2304e1d1a1506a217443559",
        prod: "12c828bb62697073b6ee50e49600d6bb4982dd8a3cab048ed3aedac32fb95661",
        a_inv: "fa5914704a44ee32ee2503b89dab790f64e1c89da4f7aec34d8383171c826d5c",
    },
    FieldCase {
        a: "cde917e1b4d78040cc4707bd80307e60c5356a96d68a090388a22bdde5c9fe39",
        b: "05c01c249d7f7214f0da0d10162a3c1e725559270a2c4267532cdae810f24d36",
        sum: "d2a934055257f354bc2215cd965aba7e378bc3bde0b64b6adbce05c6f6bb4c70",
        prod: "486f85ac939f0c8504b258a36674a89b8587999c47b38c291a4caefd761f7257",
        a_inv: "fbcd6a996ea37c7638d0856679c3831c6d77f01c69b103315e49c3848b873321",
    },
    FieldCase {
        a: "e4c2e95d1e252349b635126b142eb72f290233671c198c50984d4e51bc299c45",
        b: "873fb4c66506ae25c37bf25d98d6f32d33c2e208e8e75af8130622a2e1902037",
        sum: "6b029e24842bd16e79b104c9ac04ab5d5cc415700401e748ac5370f39dbabc7c",
        prod: "5ea1f96dee2be8733ae137bf20731948a64bc7f374f9593cbb1d850cfbd1514f",
        a_inv: "e180cb84151e2e6d60f60eebe7f7f32f102575ebdd040f90573e649af8d9d306",
    },
    FieldCase {
        a: "c780c728b6dc35df2530d8d2b11975112ccd693033bcf1dd8ac0b21a4751375d",
        b: "add1a73c66df04e902762a4e45210b6bc88d1f79dce5adc7b9f29e541d2fa45d",
        sum: "87526f651cbc3ac828a60221f73a807cf45a89a90fa29fa544b3516f6480db3a",
        prod: "5d7a3af767117d17c2e2ba3a3910f0a3608ea961e3a231cd0c3f9b30a7ef044f",
        a_inv: "c243f355b290e863e6e73279f9148888ce4bd3c6b14db00247098923eec93178",
    },
    FieldCase {
        a: "48d41f2f78d3ad40372dfe906c741b7ad59923857e5703edcf43bd0e96eee40f",
        b: "1e2d3509a845d058c4d0cfd8dad1f5601eb2505c5a2ed3727321d446b83d8f4a",
        sum: "6601553820197e99fbfdcd69474611dbf34b74e1d885d65f436591554e2c745a",
        prod: "eb2a967ba8fe560bf76127a62e54bf9fa919e4aa172dd674a4c0d4d89a20e939",
        a_inv: "b62766e62f7ddac5df9a0940abafeeb199361304f450097732aec1cc28a1d759",
    },
    FieldCase {
        a: "1c1654e04fe31de55bba7ad5c026dbf7ad7d41506c2d9f2e395be0aff9033d02",
        b: "4d9c2b25f299582d4965ac7f0b35ec557a1583d83694fbd400b06c9b89635217",
        sum: "69b27f05427d7612a51f2755cc5bc74d2893c428a3c19a033a0b4d4b83678f19",
        prod: "9358aac9ace6db8159f2befcfe796c8a3c7e4e277ec1d4f3c140fcec9439f247",
        a_inv: "860ec5e91daf314499b80882742c21fe9abfb64c178351526552cea1d07cf44e",
    },
    FieldCase {
        a: "11cd9601e70c2cdf2eb7c8e81e2482d41e70b007c758c1893245238dbd55676b",
        b: "8dc418398c26b9f366242d47f377093d32c5eff77a5693e88ab199e8343e137c",
        sum: "b191af3a7333e5d295dbf52f129c8b115135a0ff41af5472bdf6bc75f2937a67",
        prod: "390c1b1e384a6822077781ce4b95c6bcd2880e384de975d44bc274fef5886778",
        a_inv: "84382837a3c731baadd221355dd695819bb4da0793bf0378a385b6f006adcd1b",
    },
    FieldCase {
        a: "b13dcdafad5eff016332f8333147ce38616a81a4445de234b4c17090d884080c",
        b: "12997d086b7efc13d3d996b00f9b2af90b511974670727ed360f91c28c6a4133",
        sum: "c3d64ab818ddfb15360c8fe440e2f8316dbb9a18ac640922ebd0015365ef493f",
        prod: "4759c1936fd5796ed7d1ac2402169ade103c3fa13784095888e4fbd1ee4d6457",
        a_inv: "5c6f5bcbc077887d5cedb995e946a4323e508ba185d96ba5dea15aa1ad4d3b6a",
    },
    FieldCase {
        a: "1bb7a0eb7baac62b3216ac7ad219c83104af4fe5ed3720d8abc2353ecfe92e4d",
        b: "2c3c3d3ce0e5a3062639e595ec66b6d26c96565a82ff4701f588913ba07bef1d",
        sum: "47f3dd275c906a32584f9110bf807e047145a63f703768d9a04bc7796f651e6b",
        prod: "4e86e17e7839e05a9d9ae23af25ad44044585273b18c27331face00cff9bc22d",
        a_inv: "cf57fea5e64cead467285d8e5348c714f826b0872b8f798ced04f922686e845e",
    },
    FieldCase {
        a: "d91b8c2fa7597a2d3dd0e2dec36b91d40e34bd4c80e35f6102d06acbf17f762d",
        b: "26ba0dbff9e2d01ad0181da77c30e783aaf55dcd3213f26eb43a4a6f0bd85271",
        sum: "12d699eea03c4b480de9ff85409c7858b9291b1ab3f651d0b60ab53afd57c91e",
        prod: "1b868b2a47ed45872e1fef17c9af07ac77451b5d508687ae5e8443f07bfcde50",
        a_inv: "b20bca3390a794e3c2a4705cc0e327d7146fb09cb29755b51c145538565a9d4e",
    },
    FieldCase {
        a: "3173b1ba562fadbc99cbd1140d61b5e84bc18c0299f361411af74dc6a956a34b",
        b: "0c8d40cac4545307f80cd5d6ace020456b2f9214ee05ef970f56ced7f480cb7d",
        sum: "5000f2841b8400c491d8a6ebb941d62db7f01e1787f950d9294d1c9e9ed76e49",
        prod: "10498eab49feb5407c7a96135761eda89027d04ea8dafda236586efaf05e2e2a",
        a_inv: "6114cce3448a7dc448eec9e484cf1cd4efdab6fad067cf4a1a8082f1936a3d59",
    },
    FieldCase {
        a: "6dcc4f242b692a4ba826d3e7b5aa70e396b6016987d25600aa34d58097886621",
        b: "3c2f16420ac4d4a9ec1004fd28e2f59e34e80286be95dc11e93f3d86adfb6619",
        sum: "a9fb6566352dfff49437d7e4de8c6682cb9e04ef45683312937412074584cd3a",
        prod: "4ee8f6998dd4deb8587e737b20648887a18e60747ac0c4308a01453f40440443",
        a_inv: "ec549702bd28726ef94d4795d9f6399b3b8f8243110c20ff8e82ae83fb8dbd42",
    },
    FieldCase {
        a: "457a8bd67bdfbd805ff08de47ed3369cfeca134842d7930d9169d1b27f96ae64",
        b: "2643d0b8ffee058df46858282a3ddebf795ef53cd9c1d06ce89bc71b8317e01d",
        sum: "7ebd5b8f7bcec30d5459e60ca910155c782909851b99647a790599ce02ae8e02",
        prod: "787cf47bca7c5a2e401962c64792b08d11077f3a1e4366c6f2e91a4555f48517",
        a_inv: "696fc5d48bea6fb9f9d0fdf6f3db285421da0fe80e85e7fedc70d621ad285038",
    },
    FieldCase {
        a: "b714a14199a55a9d255530906bd73aa9a73220b58f50f14eeb02e43b2c403648",
        b: "832daafd4739d4c455e7c4ebee263265ee9c24e1b81c049106954d562060ef6a",
        sum: "4d424b3fe1de2e627b3cf57b5afe6c0e96cf4496486df5dff19731924ca02533",
        prod: "df9332b86a2c715120957ed0d1f8facd3472f9f2cbd28806a277a94c59411b0f",
        a_inv: "d8e3d535d683aa51f064f99b2dc30af393674f2836e333dd66ed4ad6342d0518",
    },
    FieldCase {
        a: "e17529139a64168965b2154eb3857f3a1ac382318b14605324a3eafabbb45c3c",
        b: "081f1fdad21995d1bcfd780641a03458a34f3d865d4daa419289e382e69e523d",
        sum: "e99448ed6c7eab5a22b08e54f425b492bd12c0b7e8610a95b62cce7da253af79",
        prod: "1f1574ba723aa09ef8db839e161b3f355ea3569c52c303cbfeecb85b395dfe55",
        a_inv: "a8926c97d20d97baa0ff14025e40839f0ed9f1780729105f937cdd0835c93a5e",
    },
    FieldCase {
        a: "76d2fe22e2dff1a624f40e411c85b3c4cd5a4d098b1bbf1d7fe86878ccfe4053",
        b: "a88bc4d4bb60a1bee6e3ab8742a1f7c170ed50c8548318c473bfb576387c402a",
        sum: "1e5ec3f79d4093650bd8bac85e26ab863e489ed1df9ed7e1f2a71eef047b817d",
        prod: "e7384bbd9ea93af23c9219e97be9c406a64942e414c8f05d515a6eff673c7156",
        a_inv: "ef0231f51e0156f74bcb92f6863fdcef95b4d3e06409bc9910f7f0f16d3e4660",
    },
    FieldCase {
        a: "51333bad63cdec22e89922081cff3de4be10cc8a42fb885d7eabd72414ddd25f",
        b: "b72cb1d4184d12b38c3c552a9923a0dc32f6ed72870c89eb9be072561cc64f33",
        sum: "1b60ec817c1affd574d67732b522dec0f106bafdc90712491a8c4a7b30a32213",
        prod: "2b27459646f50da607524f30d85e3295851ff14713c3c9b982b902abaa4ae304",
        a_inv: "d26e6a1166153bb40c8ec6d1ca56a2710839c2c31862c99621fd7eedb7630f5d",
    },
    FieldCase {
        a: "0b34fcb62675eb347fa8bf79c508e7d96322b900202b11247846d233a2ff452f",
        b: "9bca80874d552ffcd333255645d5ccaf0f6537845ee1221c2e99c75d7e214475",
        sum: "b9fe7c3e74ca1a3153dce4cf0adeb3897387f0847e0c3440a6df999120218a24",
        prod: "2eae0f15073f8c7da1bd06ea9b98ebde99e5f2f1afb40ca1a0d5df7a2105426a",
        a_inv: "26b7c57759d3d7212fe272222b01064181689d42fd7cdde1ee167fd3cf987374",
    },
    FieldCase {
        a: "0c146d235320d63532d51d21a1c4a7f34ad40cb4e38a0a4d4495c52a50cded48",
        b: "b9444aa7725601ea56ac3081ca37f39f80813fb75fbb85b1c0454c8b70ba067d",
        sum: "d858b7cac576d71f89814ea26bfc9a93cb554c6b434690fe04db11b6c087f445",
        prod: "bce326d841b318014844aa4ce5c49d6fa12b47222fbd43c968aee39b58196d48",
        a_inv: "a004bc22ca64e1afd94555f92596c63f204985f7ef4572c0db0a67613617bc07",
    },
];

struct ScalarCase {
    a: &'static str,
    b: &'static str,
    sum: &'static str,
    prod: &'static str,
}

const SCALAR_CASES: &[ScalarCase] = &[
    ScalarCase {
        a: "9d3a6fc4ef703c62705b84968e4f06193f840eb3c5f392c01359ec0df392d90d",
        b: "244de45026bf72971e0e6fac2d1b9f0d424e94ba68c209e817b314e436ed850e",
        sum: "d4b35db8fbcc9ca1b8ccfb9fdd70c61181d2a26d2eb69ca82b0c01f229805f0c",
        prod: "a8f8fe3022898aa271494200c484b225152e2babc1fed612199c6071a7dc3b0b",
    },
    ScalarCase {
        a: "ee322995dc8a55fd953b8e8fc86b19e4d07a68965e5890f398cb15a89eec0808",
        b: "4f5cad0510e6c1c2e6cbb9a26b9b0a37887f4f6dcdbc8c6589cbee66cd37910a",
        sum: "50bbe03dd20d0568a66a508f550d450659fab7032c151d592297040f6c249a02",
        prod: "51eaba94e7611741e4266abe5bfc7f5155c921704df5784a4f906bc71d952d08",
    },
    ScalarCase {
        a: "5f35fe57305edcd898a8d6e22b8639c9b8b290fc9e8ff60f6f31bd5cd35f0008",
        b: "94b65d47610f9a3f40ae4499552efb329480cbd558a47f64e2882bbb975e3b05",
        sum: "f3eb5b9f916d7618d9561b7c81b434fc4c335cd2f733767451bae8176bbe3b0d",
        prod: "cc79e0f615adcc702dc1d2e61c3e392d1f5d7e6909135639c80b39848b0c6808",
    },
    ScalarCase {
        a: "2243949e841bd541a39af47a0e3eefd19e4798cb52b9cd2900c21995c2964c0c",
        b: "f7cc5c41b7f332164d5175b2de08015fb0a4c4ab1bd3e0b1eeffd128c62a0a0b",
        sum: "2c3cfb8221acf5ff194f728a0e4d111c4fec5c776e8caedbeec1ebbd88c15607",
        prod: "2eedd57f059f946c08b0f75ae027a395f632543ddf6c6ef0fc5a228aa786a90e",
    },
    ScalarCase {
        a: "f7953897d3b46e767c53aad2009a4ae33b835cd315108e4d71d5ac8d8d48e301",
        b: "018ce2489338c09d1423f7847e3091707f7044071a500c9bfdaec607be8a7807",
        sum: "f8211be066ed2e149176a1577fcadb53bbf3a0da2f609ae86e8473954bd35b09",
        prod: "b1dc916033392783ee5c4bbe38a8a9dfeccecd3a0ccacfe3fda6e75f8b2e3504",
    },
    ScalarCase {
        a: "2d58ee35abd9abbc5ab19ed9e559adea03b8cbbdee6198c1b6a2d795e720c407",
        b: "743058509e2c644f416afd57a372854f3c9630def2b6b0fa9655cd3b5a43500b",
        sum: "b4b450292fa3fdb3c57ea48eaad25325404efc9be11849bc4df8a4d141641403",
        prod: "7cd7bd32d013b25cc97f852590655bea3de8f592460d0aa152ae81f859107b08",
    },
    ScalarCase {
        a: "094b8babcee35d3337cbe7c418ea64a86ca5b15c1342313531ebbe13c593f506",
        b: "1c124d694660f64afcfcf797acbd77ffafb9b643da344725929ae345da5c5f05",
        sum: "255dd8141544547e33c8df5cc5a7dca71c5f68a0ed76785ac385a2599ff0540c",
        prod: "284a83a7d39d860557bfc1f99fb5b2fa56c5d1794fde4628c1e24f3b8173b302",
    },
    ScalarCase {
        a: "89b2e64fbed15fab95dd419de72e8f28dd85eb879b3058e547454053d4fa4a0b",
        b: "502265e9b2802458039e841d82a8d3a0161694621fb9ac72855302db16554a07",
        sum: "ec0056dc56ef71abc2dece178bdd83b4f39b7feabae90458cd98422eeb4f9502",
        prod: "8cbd7e0eb4c681498b5ef2ff4c79bfed3869d9a3cc4ce00e110cfa38560d0a05",
    },
    ScalarCase {
        a: "265670b53ffed1c9bc3c455dcb2eba33fb353db8053ad8453064d2665bb24105",
        b: "561200a661035e0ec51363df98aadeaa358023a741875ec7972c25f1c2398603",
        sum: "7c68705ba10130d88150a83c64d998de30b6605f47c1360dc890f7571eecc708",
        prod: "cefcbdc8c54c9c2e20f1ce581fa0a530cc051e25db0ac574bfe3f03d863b6002",
    },
    ScalarCase {
        a: "72f15e3c18bd44508561f0c2a12bed695c942f7297bed0f5a41621f3b761dd0c",
        b: "76e6f38a4b2846d082cb90c765b96bac774309c9b7bdb91e1706ad9f33ec6903",
        sum: "fb035d6a498278c8319089e728eb7901d4d7383b4f7c8a14bc1cce92eb4d4700",
        prod: "1d1616a8167f95bcf2779a8cbbf50b6da2cf4c07c0a813adb2b77d7e3a69f30f",
    },
    ScalarCase {
        a: "862a49424695e3064dcae5b16f88c545e85a18be615ed2e3832164064f7d1409",
        b: "f3c6bc11b68842f76b09b606e1f6aa9245fd36dcd46926879d2cf6384ee6e403",
        sum: "79f10554fc1d26feb8d39bb8507f70d82d584f9a36c8f86a214e5a3f9d63f90c",
        prod: "0c6003a27c5bf54066df248932b2f2151ee579b5bdea9e67ae0edb4de9ff8f0d",
    },
    ScalarCase {
        a: "09ac141d8d1107da49ef7735570f04ac1894e75fcfdec0415c4d1e57f88a030a",
        b: "152391c94d47604c225804d72dbc494a6d0afa1ac88204e1a8fa3befe46b6800",
        sum: "1ecfa5e6da5867266c477c0c85cb4df6859ee17a9761c52205485a46ddf66b0a",
        prod: "c7e663405aca16b051b7774cf9740a48590e802b28ab240f9123aadbde45ea04",
    },
    ScalarCase {
        a: "cc864fde323eca3be35c773bef018f8437e71fe05b5cc5e49e5c3d88eda66d0d",
        b: "a150f657e087dc3a55e5317ec7e2fa817d5f90a70a4c14e1ff0725b7c1e4c30e",
        sum: "800350d9f862941e62a5b116d8eaaaf1b446b08766a8d9c59e64623faf8b310c",
        prod: "0ac43620b7bbefa8ffe21d24a76be86ab1eea3aa987c91bc9c865e8e7d6eac0e",
    },
    ScalarCase {
        a: "abc0a47ccc1753052d73273768f4a559435c48f29327817e93fbc83c201e900c",
        b: "0a1c4fa9cbd34e017411113fe5685a9e7b5a25755792d6b40e23abda98385e08",
        sum: "c808fec87d888faecae740d36e6321e3beb66d67ebb95733a21e7417b956ee04",
        prod: "f944afb299414d1f7a98fcab73bc0d900e3264ab8bc9e81ea73fe69d5d97b500",
    },
    ScalarCase {
        a: "5947934b9a739859b9e925d4c1a5ad6514aea9256bf55210e65596d30110790c",
        b: "56df7decca2b950cf7a7a9cea1db955c3c4b19cb164704ccb33a9c6f8fc8cd0a",
        sum: "c2521bdb4a3c1b0edaf4d7ff848764ad50f9c2f0813c57dc9990324391d84607",
        prod: "f6e616c6c32c128866bbee16a55c9fa14328233af700888925193469d748430d",
    },
    ScalarCase {
        a: "ec85424e57f17eacdfa5a75c3412e30fc16a5dc609c0466a01fc28b0195b0704",
        b: "542cce4053d1d465d0ad4b614807dac3e1b8829f99cafe87ad25449cf023a60b",
        sum: "40b2108faac25312b053f3bd7c19bdd3a223e065a38a45f2ae216d4c0a7fad0f",
        prod: "f66add2db5cf7818f550a2558a4ab590342ed1d5e22167adaf5b79a77e69a900",
    },
    ScalarCase {
        a: "6cdcfc43bfde3fb29d9d6d8b28ec622ab1c19aef177240fdfc9644176cfa2e06",
        b: "76101c63d693e6ad72da529b35f2483b9192409aa76fa0bd1ad1c03d7124eb04",
        sum: "e2ec18a7957226601078c0265edeab654254db89bfe1e0ba17680555dd1e1a0b",
        prod: "2f5b6ebb799488fd764141989397fb31131cb300957bac33258989ad8e16000b",
    },
    ScalarCase {
        a: "869b4443c882127de99d200f264c69a406b6e0329f18271b2b8d46052fe7000b",
        b: "6667571498cae5aab7b511facbc3026a6d97f2744475192d3e581d28bb17ef03",
        sum: "ec029c57604df827a1533209f20f6c0e744dd3a7e38d404869e5632deafeef0e",
        prod: "d94aa5f0b767b60709eb1803b0e7afeeae2c96f3cf903f68367d0e99272a7804",
    },
    ScalarCase {
        a: "8fc9f855748e88dfee001db658e1d7a574f3defbe366fd380450412333c04f0f",
        b: "4c97bd9886ef1dcde5a5c8c0f2f704d7890ad65006c99b787a83c770cb7fd80a",
        sum: "ee8cc091e01a9454fe09eed36cdffd67fefdb44cea2f99b17ed30894fe3f280a",
        prod: "36007f18d3d49afbdee95d8cefd4a461e755ad75d4b1fdb18d5533d7abb8fb05",
    },
    ScalarCase {
        a: "864438baf585b0ba4e138e6560bd729c5036a7d2d1ed09055baea1a67f32f90b",
        b: "754fe6a0edf6d73987b5f7eae854f7ea55be53862bd31b2d3d32ca7b526c3403",
        sum: "fb931e5be37c88f4d5c8855049126a87a6f4fa58fdc0253298e06b22d29e2d0f",
        prod: "3de7da510e60291de9c2f72537bd7a4e44f13a5992a86599e278e0733c4ba608",
    },
    ScalarCase {
        a: "bf9f038f1e33304a7220d4c55391c3134910f59a25739b214b43a6d1c602df02",
        b: "038274d4c28e411518561aba03b2157e6ac3297f446f14cf920412590afbba08",
        sum: "c2217863e1c1715f8a76ee7f5743d991b3d31e1a6ae2aff0dd47b82ad1fd990b",
        prod: "a25a50002efed093016d7f217ed23906ac60794e1e8749f86623b53e893da805",
    },
    ScalarCase {
        a: "2583905dedf4ac4555993d2daff2c9928e1efd40585c3f6ef54b1c2b57eb630f",
        b: "86e8f8059258315223347a236db245502a2168d498c9f10cb18f98f130a0350f",
        sum: "be97930665eacb3fa230c0ad3dab30ceb83f6515f125317ba6dbb41c888b990e",
        prod: "538a4528cf42c7d9ad6e60738f43dabfdf99397695547c6054e13c598a9f2904",
    },
    ScalarCase {
        a: "5fc0557847c719647ab3ef0d71f65c37dd45e1d387be25d7c53ac3810e3db000",
        b: "a67c49b8dd88e84a2de14bac5e7e2a640b37cacf452893928d464785ab238d03",
        sum: "053d9f30255002afa7943bbacf74879be87caba3cde6b86953810a07ba603d04",
        prod: "3c07bf12da49232e12375e92792f4d64beb200c1e1c86996aa95741f0e64a10f",
    },
    ScalarCase {
        a: "0ce4d58b550b18ae9f5c49964670bf52d3464e9c4a4a2f053d6ae05e9243ef01",
        b: "948fcef362088f9316b9c04a071a66c2a9cdc4029f7e58a0e39790c266796904",
        sum: "a073a47fb813a741b6150ae14d8a25157d14139fe9c887a520027121f9bc5806",
        prod: "64df8ef3df692cfc5ee7d1b88c318d17571a65a3a3e9e940b82a2f09fdb3f90b",
    },
];

#[test]
fn field_arithmetic_matches_reference_bigints() {
    for (i, case) in FIELD_CASES.iter().enumerate() {
        let (a, b) = (fe(case.a), fe(case.b));
        assert!(a.add(b).ct_eq(fe(case.sum)), "case {i}: sum");
        assert!(a.mul(b).ct_eq(fe(case.prod)), "case {i}: prod");
        assert!(a.invert().ct_eq(fe(case.a_inv)), "case {i}: invert");
        // And the encodings are canonical round-trips.
        assert_eq!(fe(case.prod).to_bytes().to_vec(), {
            let mut bytes = [0u8; 32];
            for (j, byte) in bytes.iter_mut().enumerate() {
                *byte = u8::from_str_radix(&case.prod[2 * j..2 * j + 2], 16).unwrap();
            }
            bytes.to_vec()
        });
    }
}

/// Fermat's `x^(p−2)` from the public exponentiation by (p − 5)/8:
/// 8·(2²⁵² − 3) + 3 = 2²⁵⁵ − 21 = p − 2.
fn fermat_inverse(x: Fe) -> Fe {
    x.pow_p58().pow2k(3).mul(x.square().mul(x))
}

proptest! {
    #[test]
    fn invert_matches_fermat(bytes in any::<[u8; 32]>()) {
        let x = Fe::from_bytes(&bytes);
        prop_assert_eq!(x.invert().to_bytes(), fermat_inverse(x).to_bytes());
        if !x.is_zero() {
            prop_assert!(x.mul(x.invert()).ct_eq(Fe::ONE));
        }
    }
}

#[test]
fn invert_at_the_edges() {
    // Little-endian p − 1, p and p + 1; `Fe::from_bytes` keeps the last
    // two unreduced, as a hostile encoding would arrive.
    let near_p = |low: &str| fe(&format!("{low}{}7f", "ff".repeat(30)));
    let cases = [
        (fe(&"00".repeat(32)), Fe::ZERO),
        (Fe::ONE, Fe::ONE),
        (near_p("ec"), Fe::ONE.neg()),
        (near_p("ed"), Fe::ZERO),
        (near_p("ee"), Fe::ONE),
    ];
    for (i, (x, inverse)) in cases.into_iter().enumerate() {
        assert!(x.invert().ct_eq(inverse), "edge {i}");
        assert!(x.invert().ct_eq(fermat_inverse(x)), "edge {i}: Fermat");
        if !x.is_zero() {
            assert!(x.mul(x.invert()).ct_eq(Fe::ONE), "edge {i}: x·x⁻¹");
        }
    }
}

#[test]
fn scalar_arithmetic_matches_reference_bigints() {
    for (i, case) in SCALAR_CASES.iter().enumerate() {
        let (a, b) = (sc(case.a), sc(case.b));
        assert_eq!(a.add(b), sc(case.sum), "case {i}: sum");
        assert_eq!(a.mul(b), sc(case.prod), "case {i}: prod");
    }
}

// Generator (Python 3, seed 20260704):
//   p = 2**255 - 19; L = 2**252 + 27742317777372353535851937790883648493
//   sum/prod/inv computed with native bigints and serialized little-endian.
