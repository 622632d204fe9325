//! Property tests for the CPER recorded-trace format: lossless
//! round-tripping of arbitrary well-formed records, and eager rejection of
//! corruption — each class of damage must surface as its matching
//! [`ReplayError`] variant from `parse_recorded`, never as a panic, an
//! abort or a silent truncation.

use cpe_isa::replay::{
    parse_recorded, write_recorded, RecordedTrace, ReplayError, REPLAY_FORMAT, REPLAY_MAGIC,
};
use cpe_isa::{decode, DynInst, Inst, Mode, Op, Reg};
use proptest::prelude::*;

/// Byte offsets inside a serialized recording: a 29-byte fixed header
/// (magic, format, records, complete, window, dict_len), `dict_len`
/// 8-byte dictionary words, an 8-byte payload length, then the payload.
const FIXED_HEADER_BYTES: usize = 29;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..64).prop_map(|i| Reg::from_index(i).unwrap())
}

fn arb_record() -> impl Strategy<Value = DynInst> {
    let ops = prop::sample::select(Op::ALL.to_vec());
    (
        ops,
        arb_reg(),
        arb_reg(),
        arb_reg(),
        any::<i32>(),
        any::<u64>(),
        0..u64::MAX - 7,
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(op, rd, rs1, rs2, imm, pc, addr, taken, next_pc, kernel)| DynInst {
                pc,
                inst: Inst {
                    op,
                    rd,
                    rs1,
                    rs2,
                    imm: i64::from(imm),
                },
                // Loads and stores carry an address, anything else none;
                // the address may be anywhere an access fits below 2^64.
                mem_addr: op.is_mem().then_some(addr),
                taken,
                next_pc,
                mode: if kernel { Mode::Kernel } else { Mode::User },
            },
        )
}

fn serialize(records: &[DynInst]) -> (Vec<u8>, RecordedTrace) {
    let recorded = RecordedTrace::record(records.iter().copied(), None);
    let mut bytes = Vec::new();
    write_recorded(&mut bytes, &recorded).unwrap();
    (bytes, recorded)
}

/// Offset of the first payload byte (the first record's flags).
fn payload_base(bytes: &[u8], recorded: &RecordedTrace) -> usize {
    bytes.len() - recorded.info().payload_bytes
}

proptest! {
    #[test]
    fn arbitrary_traces_roundtrip(records in prop::collection::vec(arb_record(), 0..100)) {
        let (bytes, recorded) = serialize(&records);
        let back = parse_recorded(&bytes).unwrap();
        prop_assert_eq!(back.info(), recorded.info());
        prop_assert_eq!(back.iter().collect::<Vec<DynInst>>(), records);
    }

    /// Any single-byte corruption either still parses (the byte was a
    /// don't-care such as the `complete` flag) or is rejected — never a
    /// panic. A file that parses replays exactly the records it promises.
    #[test]
    fn corruption_never_panics(
        records in prop::collection::vec(arb_record(), 1..20),
        position in any::<prop::sample::Index>(),
        value in any::<u8>(),
    ) {
        let (mut bytes, _) = serialize(&records);
        let index = position.index(bytes.len());
        bytes[index] = value;
        if let Ok(trace) = parse_recorded(&bytes) {
            prop_assert_eq!(trace.iter().count() as u64, trace.records());
        }
    }

    /// A file cut off inside the header or dictionary is `Truncated` at
    /// an offset inside what was kept — never a decode attempt on garbage.
    #[test]
    fn truncated_headers_are_truncated(
        records in prop::collection::vec(arb_record(), 1..4),
        keep in any::<prop::sample::Index>(),
    ) {
        let (bytes, recorded) = serialize(&records);
        let keep = keep.index(payload_base(&bytes, &recorded));
        match parse_recorded(&bytes[..keep]) {
            Err(ReplayError::Truncated { offset }) => {
                prop_assert!(offset as usize <= keep, "{} > {}", offset, keep);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// A file cut off inside its payload is `Truncated` at the payload:
    /// the header's length field no longer fits the file.
    #[test]
    fn truncated_payloads_are_truncated(
        records in prop::collection::vec(arb_record(), 1..20),
        cut in any::<prop::sample::Index>(),
    ) {
        let (bytes, recorded) = serialize(&records);
        let base = payload_base(&bytes, &recorded);
        let keep = base + cut.index(bytes.len() - base);
        match parse_recorded(&bytes[..keep]) {
            Err(ReplayError::Truncated { offset }) => prop_assert_eq!(offset as usize, base),
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// Undefined bits in a record's flags byte are rejected as
    /// `BadFlags`, echoing the offending byte and its file offset.
    #[test]
    fn undefined_flag_bits_are_bad_flags(
        records in prop::collection::vec(arb_record(), 1..8),
        noise in 1u8..8,
    ) {
        let (mut bytes, recorded) = serialize(&records);
        let base = payload_base(&bytes, &recorded);
        // Bits 0..=4 are defined; fold the noise into bits 5..=7.
        let poisoned = bytes[base] | (noise << 5);
        bytes[base] = poisoned;
        match parse_recorded(&bytes) {
            Err(ReplayError::BadFlags { offset, flags }) => {
                prop_assert_eq!(offset as usize, base);
                prop_assert_eq!(flags, poisoned);
            }
            other => prop_assert!(false, "expected BadFlags, got {:?}", other),
        }
    }

    /// A dictionary word that does not decode is rejected as `BadInst`,
    /// naming its slot and carrying the decoder's own diagnosis.
    #[test]
    fn undecodable_instruction_words_are_bad_inst(
        records in prop::collection::vec(arb_record(), 1..8),
        word in any::<u64>(),
    ) {
        prop_assume!(decode(word).is_err());
        let (mut bytes, _) = serialize(&records);
        let slot0 = FIXED_HEADER_BYTES;
        bytes[slot0..slot0 + 8].copy_from_slice(&word.to_le_bytes());
        match parse_recorded(&bytes) {
            Err(ReplayError::BadInst { slot: 0, .. }) => {}
            other => prop_assert!(false, "expected BadInst in slot 0, got {:?}", other),
        }
    }

    /// Bytes that were never a recording: most die at the magic, none
    /// may panic.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_recorded(&bytes);
    }

    /// A correct magic and format get hostile bytes past the gate and
    /// into the length fields and record decoder, where allocations and
    /// overflows would hide.
    #[test]
    fn valid_header_hostile_body_never_panics(
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = REPLAY_MAGIC.to_vec();
        bytes.extend_from_slice(&REPLAY_FORMAT.to_le_bytes());
        bytes.extend_from_slice(&body);
        if let Ok(trace) = parse_recorded(&bytes) {
            prop_assert_eq!(trace.iter().count() as u64, trace.records());
        }
    }
}
