//! Known-answer tests for the crypto substrate against published vectors:
//!
//! * SHA-256 — FIPS 180-4 examples (NIST CAVP short/long messages)
//! * AES-128/AES-256 block — FIPS 197 appendix C
//! * AES-CTR — NIST SP 800-38A F.5.1 / F.5.5
//! * AES-CTR and `SealedBox` — seeded outputs, pinned byte for byte
//! * HMAC-SHA256 — RFC 4231 test cases 1–7
//! * Poly1305 — RFC 8439 §2.5.2
//! * HKDF-SHA256 — RFC 5869 test cases 1–3
//! * RSA — seeded 512- and 1024-bit keys, their PKCS#1 v1.5 SHA-256
//!   signatures and one type-2 ciphertext, pinned byte for byte
//!
//! The property tests cross-check internal consistency (round trips,
//! incremental == one-shot); these vectors pin the primitives to the
//! *standard* algorithms, so a self-consistent-but-wrong implementation
//! cannot slip through.

use scbr_crypto::aes::Aes;
use scbr_crypto::ctr::{AesCtr, SymmetricKey};
use scbr_crypto::hkdf;
use scbr_crypto::hmac::HmacSha256;
use scbr_crypto::poly1305::Poly1305;
use scbr_crypto::rng::CryptoRng;
use scbr_crypto::rsa::RsaKeyPair;
use scbr_crypto::sha256::Sha256;
use scbr_crypto::SealedBox;

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

// -------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// -------------------------------------------------------------------------

#[test]
fn sha256_fips180_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (message, expected) in cases {
        assert_eq!(Sha256::digest(message).to_vec(), hex(expected));
    }
}

#[test]
fn sha256_million_a() {
    let mut h = Sha256::new();
    // Fed in uneven chunks to also exercise buffering across block
    // boundaries.
    let chunk = [b'a'; 997];
    let mut remaining = 1_000_000usize;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        h.update(&chunk[..n]);
        remaining -= n;
    }
    assert_eq!(
        h.finalize().to_vec(),
        hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

// -------------------------------------------------------------------------
// AES block cipher (FIPS 197 appendix C)
// -------------------------------------------------------------------------

#[test]
fn aes128_fips197_example() {
    let aes = Aes::new(&hex("000102030405060708090a0b0c0d0e0f")).unwrap();
    let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
    aes.encrypt_block(&mut block);
    assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

#[test]
fn aes256_fips197_example() {
    let aes =
        Aes::new(&hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")).unwrap();
    let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
    aes.encrypt_block(&mut block);
    assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
}

// -------------------------------------------------------------------------
// AES-CTR (NIST SP 800-38A)
// -------------------------------------------------------------------------

/// SP 800-38A's four-block plaintext, shared by every CTR vector.
const CTR_PLAINTEXT: &str = "6bc1bee22e409f96e93d7e117393172a\
                             ae2d8a571e03ac9c9eb76fac45af8e51\
                             30c81c46a35ce411e5fbc1191a0a52ef\
                             f69f2445df4f9b17ad2b417be66c3710";

/// The standard initial counter block `f0f1..ff` split into this
/// implementation's (nonce, initial block counter) layout.
const CTR_NONCE: [u8; 8] = [0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7];
const CTR_INITIAL_BLOCK: u64 = 0xf8f9_fafb_fcfd_feff;

fn ctr_check(key_hex: &str, expected_ct_hex: &str) {
    let key = SymmetricKey::from_bytes(hex(key_hex));
    let mut data = hex(CTR_PLAINTEXT);
    let mut ctr = AesCtr::new(&key, CTR_NONCE);
    ctr.seek_block(CTR_INITIAL_BLOCK);
    ctr.apply(&mut data);
    assert_eq!(data, hex(expected_ct_hex));

    // Decryption is the same keystream; also exercises random access.
    let mut ctr = AesCtr::new(&key, CTR_NONCE);
    ctr.seek_block(CTR_INITIAL_BLOCK);
    ctr.apply(&mut data);
    assert_eq!(data, hex(CTR_PLAINTEXT));

    // Seeking straight to the third block must reproduce its keystream.
    let mut tail = hex(CTR_PLAINTEXT)[32..48].to_vec();
    let mut ctr = AesCtr::new(&key, CTR_NONCE);
    ctr.seek_block(CTR_INITIAL_BLOCK.wrapping_add(2));
    ctr.apply(&mut tail);
    assert_eq!(tail, hex(expected_ct_hex)[32..48].to_vec());
}

#[test]
fn aes128_ctr_sp800_38a_f_5_1() {
    ctr_check(
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce\
         9806f66b7970fdff8617187bb9fffdff\
         5ae4df3edbd5d35e5b4f09020db03eab\
         1e031dda2fbe03d1792170a0f3009cee",
    );
}

#[test]
fn aes256_ctr_sp800_38a_f_5_5() {
    ctr_check(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228\
         f443e3ca4d62b59aca84e990cacaf5c5\
         2b0930daa23de94ce87017ba2d84988d\
         dfc9c58db67aada613c2dd08457941a6",
    );
}

// -------------------------------------------------------------------------
// Seeded CTR and SealedBox outputs (generated before the bitsliced core)
// -------------------------------------------------------------------------

/// 71 bytes: crosses one 64-byte keystream refill and ends mid-block.
fn pinned_plaintext() -> Vec<u8> {
    (0..71u32).map(|i| (i * 37 + 11) as u8).collect()
}

/// Seeded keys and nonces, so every ciphertext and tag byte is pinned:
/// the cipher, the counter layout, the wire framing and the MAC input
/// order must all stay as they are. (The `SealedBox` bytes were re-pinned
/// when its tag moved from HMAC-SHA256 to Poly1305-AES.)
#[test]
fn seeded_ctr_and_sealed_box_outputs_are_pinned() {
    let mut rng = CryptoRng::from_seed(26);
    let key128 = SymmetricKey::generate(&mut rng);
    let key256 = SymmetricKey::generate_256(&mut rng);
    let plain = pinned_plaintext();
    let ctr128 = AesCtr::encrypt_with_nonce(&key128, &mut rng, &plain);
    let ctr256 = AesCtr::encrypt_with_nonce(&key256, &mut rng, &plain);
    let sealed = SealedBox::new(&key128).seal(&plain, b"pinned aad", &mut rng);
    assert_eq!(
        ctr128,
        hex("20ac119ddfe17e7696543bbe9f9de534f493f01ef0a10ee14053535e35020f410f87ea95157322d6\
             180d333ab4b73717a380340ee35a03edf051b26b85f477776e7e35a75307b5afddde918c606c40")
    );
    assert_eq!(
        ctr256,
        hex("8203fc26c8897ea3f01095e34e6c7d94b449514bdd56de4e39830f7af1e6324a4839bd3a9336a259\
             442dac502a81d9834e01353b06514bc40c331dbbcc2431b03867fa95deb9ac86227241ad50f196")
    );
    assert_eq!(sealed, hex("eb3662aed0610599dcd6bbecb752bcce4fb3b4deea9a353335371418eeae7c4323dc9962075bcbce\
                           aee41d7eb209d02c3b6f8febfba41687d33493e218313305c2b258ab9651ccd366d9e9e8910dc261\
                           74b1e44d4a513ebc73ddbc4fad2fd6"));
    assert_eq!(SealedBox::new(&key128).open(&sealed, b"pinned aad").unwrap(), plain);
    // The same seal under encrypt-then-HMAC, as the box wrote it before
    // Poly1305: same nonce, a 32-byte tag. It no longer opens.
    let hmac_layout = hex("eb3662aed061059971f68cbd645df63e16310b9aed83eda58c664b5cc7826c9eff43048e3a4a4583\
                           c56744c83edeccb3738c49d277eb1b9efe14ad0e02d9807ccbdfff3b2bf4a677636443324881c312\
                           5604bfd2b34852417a7863d04c10490f45a4501e238b082b2065434d944ab1");
    assert_eq!(
        SealedBox::new(&key128).open(&hmac_layout, b"pinned aad"),
        Err(scbr_crypto::CryptoError::VerificationFailed)
    );
}

// -------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// -------------------------------------------------------------------------

#[test]
fn hmac_sha256_rfc4231_vectors() {
    // (key, data, full-length tag)
    let cases: &[(Vec<u8>, Vec<u8>, &str)] = &[
        // Case 1
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        // Case 2: key shorter than block size
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        // Case 3: combined key/data repetition
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        // Case 4
        (
            hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        // Case 6: key larger than block size (hashed first)
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        // Case 7: key and data both larger than block size
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (key, data, expected) in cases {
        assert_eq!(HmacSha256::mac(key, data).to_vec(), hex(expected));
        assert!(HmacSha256::verify(key, data, &hex(expected)));
    }
}

#[test]
fn hmac_sha256_rfc4231_case5_truncated() {
    // Case 5 specifies a tag truncated to 128 bits.
    let tag = HmacSha256::mac(&[0x0c; 20], b"Test With Truncation");
    assert_eq!(tag[..16].to_vec(), hex("a3b6167473100ee06e0c796c2955552b"));
}

// -------------------------------------------------------------------------
// Poly1305 (RFC 8439)
// -------------------------------------------------------------------------

#[test]
fn poly1305_rfc8439_2_5_2() {
    let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a8\
                             0103808afb0db2fd4abff6af4149f51b")
    .try_into()
    .unwrap();
    let mut mac = Poly1305::new(&key);
    mac.update(b"Cryptographic Forum Research Group");
    assert_eq!(mac.finalize().to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
}

// -------------------------------------------------------------------------
// HKDF-SHA256 (RFC 5869)
// -------------------------------------------------------------------------

struct HkdfCase {
    ikm: Vec<u8>,
    salt: Vec<u8>,
    info: Vec<u8>,
    prk: &'static str,
    okm: &'static str,
}

#[test]
fn hkdf_sha256_rfc5869_vectors() {
    let cases = [
        // Test case 1: basic
        HkdfCase {
            ikm: vec![0x0b; 22],
            salt: hex("000102030405060708090a0b0c"),
            info: hex("f0f1f2f3f4f5f6f7f8f9"),
            prk: "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
            okm: "3cb25f25faacd57a90434f64d0362f2a\
                  2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
                  34007208d5b887185865",
        },
        // Test case 2: longer inputs/outputs (multi-block expand)
        HkdfCase {
            ikm: (0x00..=0x4f).collect(),
            salt: (0x60..=0xaf).collect(),
            info: (0xb0..=0xff).collect(),
            prk: "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
            okm: "b11e398dc80327a1c8e7f78c596a4934\
                  4f012eda2d4efad8a050cc4c19afa97c\
                  59045a99cac7827271cb41c65e590e09\
                  da3275600c2f09b8367793a9aca3db71\
                  cc30c58179ec3e87c14c01d5c1f3434f\
                  1d87",
        },
        // Test case 3: zero-length salt and info
        HkdfCase {
            ikm: vec![0x0b; 22],
            salt: Vec::new(),
            info: Vec::new(),
            prk: "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
            okm: "8da4e775a563c18f715f802a063c5a31\
                  b8a11f5c5ee1879ec3454e5f3c738d2d\
                  9d201395faa4b61a96c8",
        },
    ];
    for case in &cases {
        let prk = hkdf::extract(&case.salt, &case.ikm);
        assert_eq!(prk.to_vec(), hex(case.prk));

        let expected_okm = hex(case.okm);
        let mut okm = vec![0u8; expected_okm.len()];
        hkdf::expand(&prk, &case.info, &mut okm);
        assert_eq!(okm, expected_okm);

        // The one-shot derive must agree with extract-then-expand.
        let mut derived = vec![0u8; expected_okm.len()];
        hkdf::derive(&case.salt, &case.ikm, &case.info, &mut derived);
        assert_eq!(derived, expected_okm);
    }
}

// -------------------------------------------------------------------------
// RSA (seeded keys; generated before the Montgomery core was rewritten)
// -------------------------------------------------------------------------

/// The messages every pinned key signs.
const RSA_MESSAGES: [&[u8]; 3] = [b"", b"abc", b"subscription: symbol = HAL and price < 50"];

/// The plaintext of each pinned ciphertext.
const RSA_PLAINTEXT: &[u8] = b"SK = 000102030405060708090a0b0c0d0e0f";

struct RsaCase {
    seed: u64,
    bits: usize,
    /// `RsaPublicKey::to_bytes`.
    public_key: &'static str,
    /// One signature per entry of `RSA_MESSAGES`.
    signatures: [&'static str; 3],
    /// `RSA_PLAINTEXT` encrypted with `CryptoRng::from_seed(seed + 1)`.
    ciphertext: &'static str,
}

/// Key generation draws the same RNG sequence, so seeded keys (benchmark
/// seeds, fixtures, `SgxPlatform::for_testing`) stay byte-identical;
/// signing is deterministic, so signatures do too.
#[test]
fn rsa_seeded_keys_signatures_and_decrypt() {
    let cases = [
        RsaCase {
            seed: 2016,
            bits: 512,
            public_key: "00000040d57cb0d3891596059106359af28f66faf1b35c9a4c8955b18b3468cc\
                         49a480f96f76148bb8a39aa3b6bcaff445c3ace0618e0579b4137728a9a35941\
                         22bc98bb00000003010001",
            signatures: [
                "b8bcba36ce934b6501d6c66ee98d4cf71951d9058ba47b3a827a85009b56fc4e\
                 66f0879f8a2771a47dd447eba18c4da0d87dcd98350913604f415629385047bc",
                "90154cf8a3e745d65a5c7ca97b0a8283e9f92da95106bc825be323f586faa5ea\
                 6417b71ae4fcbce35b10a93d641e15933e85463b50748728a13b251fed361c12",
                "6e3ef04e7a539b640716b269ee480b9770b19c94211d5e80297e318b1e13e7ea\
                 ac66ac6f67fe0e604aa0d15f440c4531896716825d2ec32f7aae3ded98909294",
            ],
            ciphertext: "8f852e881722215b19d6217cfaeea559a1000b9748c4a59943d0626122de8c2a\
                         1f2c2afd3c02eee1e85efbdefd810ef46fecbc84df16a5a1005aa13ba9bfedd3",
        },
        RsaCase {
            seed: 612,
            bits: 1024,
            public_key: "00000080a802799ccda102e3a79e9b18070e276646467d25eb8fa9be28fd059f\
                         a49f8196127bb633123a2d603a8aa0bc7e2f9bc299bad0c0b1519c48aed9cbdd\
                         ca3aa8c0a312b9599e1123e6f94808c09e5d69bccf4743250813d52094e2a172\
                         8f20c1460ae15957be5073fa8f8f77696b71fa4a339ee28b837d616521fc701d\
                         39537e6900000003010001",
            signatures: [
                "3c20cee8520b301af228dcb312ba72feb9c59119d5f84e333f570149970026e8\
                 f2d1a03d7cdc50f571abae30b4e2df5baeca3ed51f0dd285be6afa13f97c6e24\
                 546ff2878cb08f9c1e430bd7def9b8460481853be964e95ab84296ce373ddc9d\
                 d2e944050658a69f78106a150298f9a5f99c3f05db3a5506c49bd5b1196f4467",
                "5b52d188dd7fdf2a02e99a8d476c624943abaf30e9c43befe2e42f3b1288fa93\
                 4104df6ef4a752d5bf044c606f2d398f8c675c5b0bc81aef045b1a40d57ed25a\
                 06a8eeabd067c26adaa1689f815560c9a50665216fdd75617a762d8ff143a1e0\
                 a2a17e769eaab40750c0f3b26556a611aaeb3a11d8fff246d1f0883842c04ae7",
                "0c6c196c9dc739320d3617d798b33a7b56f9bb918b35a23cf0fb7f5bf4db03ef\
                 c74729bb72129429c3f4fd9c3d00a22a30d59920f06146f97a5661b3b636fe45\
                 e5f3c046409815b8b7ec103b6973ff5dc226a40653c83cf8032a6f7ef25dbe38\
                 77924420b3dba7eea38c36f0603f4aac4be1b1ccc891cf6dee4252c5d76add25",
            ],
            ciphertext: "166bcc7e5d39233aff734639be11b331ebb0b0833b446bceb39c48518f41c5a8\
                         dd5cfeb03dca1cbd97b26b43b19342fc5ce61e5ace6203280cde3ec0a67d9b1e\
                         fcaf471e38206a63140a25c889859877c28c7086a470db420214b94ed2bf53f2\
                         d6da3c0a7b918cb4f80fae1822a969ba070e3c001e4c531fa9e56b51ffbe707e",
        },
    ];
    for case in &cases {
        let mut rng = CryptoRng::from_seed(case.seed);
        let pair = RsaKeyPair::generate(case.bits, &mut rng).unwrap();
        assert_eq!(pair.public().to_bytes(), hex(case.public_key), "{}-bit key", case.bits);
        for (msg, sig) in RSA_MESSAGES.iter().zip(case.signatures) {
            let sig = hex(sig);
            assert_eq!(pair.private().sign(msg).unwrap(), sig, "{}-bit signature", case.bits);
            pair.public().verify(msg, &sig).unwrap();
        }
        let ct = hex(case.ciphertext);
        let mut enc_rng = CryptoRng::from_seed(case.seed + 1);
        assert_eq!(pair.public().encrypt(RSA_PLAINTEXT, &mut enc_rng).unwrap(), ct);
        assert_eq!(pair.private().decrypt(&ct).unwrap(), RSA_PLAINTEXT);
    }
}
