//! Golden cache keys: `SolveRequest::key()` is the address of a schedule in
//! the memory cache and on disk, so its value must not move between builds.
//! A key that moves silently orphans every existing disk entry. One request
//! per method pins that method's hash name.

use teccl_collective::CollectiveKind;
use teccl_service::{RequestMethod, SolveRequest};
use teccl_topology::internal2;

#[test]
fn request_keys_match_their_pinned_values() {
    let golden = [
        (
            RequestMethod::Auto,
            0xb5bb_030d_c0b8_e4cd,
            0xd1b8_2032_e04f_4204,
        ),
        (
            RequestMethod::Milp,
            0x0232_fccb_886c_d18c,
            0x7306_8e42_1e08_88c5,
        ),
        (
            RequestMethod::Lp,
            0x789f_e587_2b20_7664,
            0x1329_a2d8_e89c_ed39,
        ),
        (
            RequestMethod::AStar,
            0xaa76_c501_b47c_ecc2,
            0xd336_f6f9_1302_144d,
        ),
    ];
    for (method, family, hash) in golden {
        let key = SolveRequest::new(internal2(2), CollectiveKind::AllToAll, 1, 1024.0 * 1024.0)
            .with_method(method)
            .key();
        assert_eq!(key.size_bucket, 40, "{method:?}");
        assert_eq!(key.family, family, "{method:?}: family moved");
        assert_eq!(key.hash, hash, "{method:?}: key moved");
    }
}
