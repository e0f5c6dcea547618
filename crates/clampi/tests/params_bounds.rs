//! Hostile capacities: a `CacheParams` field past what the engine can
//! address comes back from `CacheParams::validate` / `RmaCache::try_new`
//! as a `ParamsError` naming it, before anything is allocated. `|I_w|` is
//! bounded by the 32-bit Cuckoo hash range, `|S_w|` by the 32-bit region
//! offset an entry keeps. The constructors' asserts stay as backstops.
#![cfg(target_pointer_width = "64")]

use clampi::cache::{MAX_INDEX_ENTRIES, MAX_STORAGE_BYTES};
use clampi::{CacheParams, ParamsError, RmaCache};

#[test]
fn an_index_past_the_hash_range_is_an_error() {
    let params = CacheParams {
        index_entries: MAX_INDEX_ENTRIES + 1,
        ..CacheParams::default()
    };
    let err = RmaCache::try_new(params).unwrap_err();
    assert_eq!(
        err,
        ParamsError("index_entries", 1 << 32, u32::MAX as usize)
    );
    assert_eq!(
        err.to_string(),
        "CacheParams::index_entries = 4294967296 exceeds 4294967295"
    );
}

#[test]
fn storage_past_the_offset_range_is_an_error() {
    let params = CacheParams {
        storage_bytes: MAX_STORAGE_BYTES + 1,
        ..CacheParams::default()
    };
    let err = RmaCache::try_new(params).unwrap_err();
    assert_eq!(
        err,
        ParamsError("storage_bytes", 1 << 32, u32::MAX as usize)
    );
}

#[test]
fn the_first_field_past_its_bound_is_named() {
    let params = CacheParams {
        index_entries: usize::MAX,
        storage_bytes: usize::MAX,
        ..CacheParams::default()
    };
    assert_eq!(params.validate().unwrap_err().0, "index_entries");
}

#[test]
fn the_bounds_themselves_are_valid() {
    // Checked, not built: an engine this large would allocate 64 GiB.
    let params = CacheParams {
        index_entries: MAX_INDEX_ENTRIES,
        storage_bytes: MAX_STORAGE_BYTES,
        ..CacheParams::default()
    };
    assert_eq!(params.validate(), Ok(()));
    assert!(RmaCache::try_new(CacheParams::default()).is_ok());
}

#[test]
#[should_panic(expected = "32-bit offset range")]
fn new_still_asserts_the_storage_bound() {
    let _ = RmaCache::new(CacheParams {
        storage_bytes: MAX_STORAGE_BYTES + 1,
        ..CacheParams::default()
    });
}
