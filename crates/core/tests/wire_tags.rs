//! Every tag byte a wire or sealed enum does not declare is refused with
//! that enum's typed error, whatever follows it; every declared one is read
//! as its variant. The tags come from each enum's one declaration
//! (`impl_wire_enum!`'s `TAGS`), so a variant added there is covered here.

use teechain::msg::{ProtocolMsg, StateDelta, WireMsg};
use teechain::node::NodeWire;
use teechain::{MultihopStage, SwapPhase};
use teechain_blockchain::ScriptPubKey;
use teechain_util::codec::{Decode, WireError};

fn every_other_byte_is_refused<T: Decode>(tags: &[u8], what: &'static str) {
    let refused = Some(WireError::InvalidValue(what));
    for tag in 0..=u8::MAX {
        for body in [&[][..], &[0; 8], &[0xff; 200]] {
            let bytes = [&[tag][..], body].concat();
            let err = T::decode_exact(&bytes).err();
            if tags.contains(&tag) {
                assert_ne!(err, refused, "{what}: tag {tag} is declared");
            } else {
                assert_eq!(err, refused, "{what}: tag {tag} is not declared");
            }
        }
    }
}

#[test]
fn a_tag_outside_an_enums_declaration_is_its_typed_error() {
    every_other_byte_is_refused::<ProtocolMsg>(ProtocolMsg::TAGS, "protocol tag");
    every_other_byte_is_refused::<StateDelta>(StateDelta::TAGS, "delta tag");
    every_other_byte_is_refused::<WireMsg>(WireMsg::TAGS, "wire tag");
    every_other_byte_is_refused::<NodeWire>(NodeWire::TAGS, "node wire tag");
    every_other_byte_is_refused::<ScriptPubKey>(ScriptPubKey::TAGS, "script tag");
    every_other_byte_is_refused::<MultihopStage>(MultihopStage::TAGS, "multihop stage");
    every_other_byte_is_refused::<SwapPhase>(SwapPhase::TAGS, "swap phase");
}
