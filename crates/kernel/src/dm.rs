//! The device-mapper subsystem: layered block devices.
//!
//! Exercised by `dm-crypt`, `dm-zero`, and `dm-snapshot`. Each *created
//! device* is a separate module principal named by its `dm_target`
//! pointer (Guideline 5) — compromising one encrypted volume must not
//! grant access to the others.

use std::sync::Arc;

use lxfi_core::iface::Param;
use lxfi_core::runtime::EmittedCap;
use lxfi_machine::{Trap, Word};

use crate::kernel::KernelCpu;
use crate::types::{bio, dm_target};

/// Annotation for target constructors: per-device principal, WRITE over
/// the `dm_target` so the module can stash its private pointer.
pub const DM_CTR_ANN: &str = "principal(ti) pre(copy(write, ti, 64))";

/// Annotation for the map callback: the bio's capabilities transfer to
/// the target for the duration of the call (returned on completion
/// status != 0, i.e. DM_MAPIO_REQUEUE).
pub const DM_MAP_ANN: &str = "principal(ti) \
     pre(check(write, ti, 64)) \
     pre(transfer(bio_caps(bio))) \
     post(if (return == 2) transfer(bio_caps(bio)))";

/// Device-mapper state.
#[derive(Debug, Default)]
pub struct DmState {
    /// Created targets: (dm_target address, module ops table address).
    pub targets: Vec<(Word, Word)>,
    /// Registered target types: (type id, ops table address).
    pub target_types: Vec<(u64, Word)>,
}

/// Registers device-mapper exports and interface annotations.
pub fn register(k: &mut KernelCpu) {
    k.rt.register_iterator(
        "bio_caps",
        Box::new(|mem, b, out| {
            out.push(EmittedCap::Write {
                addr: b,
                size: bio::SIZE,
            });
            let data = mem
                .read_word((b as i64 + bio::DATA) as u64)
                .map_err(|e| e.to_string())?;
            let len = mem
                .read_word((b as i64 + bio::LEN) as u64)
                .map_err(|e| e.to_string())?;
            if data != 0 && len > 0 {
                out.push(EmittedCap::Write {
                    addr: data,
                    size: len,
                });
            }
            Ok(())
        }),
    );

    k.define_sig(
        "dm_ctr",
        vec![Param::ptr("ti", "dm_target"), Param::scalar("arg")],
        DM_CTR_ANN,
    );
    k.define_sig(
        "dm_map",
        vec![Param::ptr("ti", "dm_target"), Param::ptr("bio", "bio")],
        DM_MAP_ANN,
    );
    k.define_sig(
        "dm_dtr",
        vec![Param::ptr("ti", "dm_target"), Param::scalar("unused")],
        "principal(ti)",
    );

    k.export(
        "dm_register_target",
        vec![Param::scalar("type_id"), Param::scalar("ops")],
        Some(""),
        Arc::new(|k, args| {
            k.dm().target_types.push((args[0], args[1]));
            Ok(0)
        }),
    );
}

impl KernelCpu {
    /// Creates a mapped device of the given registered type; dispatches
    /// the module's constructor (`ctr`, ops slot 0). Returns the
    /// `dm_target` address.
    pub fn dm_create(&mut self, type_id: u64, ctr_arg: u64) -> Result<Word, Trap> {
        let ops = self
            .dm()
            .target_types
            .iter()
            .find(|&&(t, _)| t == type_id)
            .map(|&(_, o)| o)
            .ok_or_else(|| Trap::BadRef(format!("dm target type {type_id}")))?;
        let ti = self.kstatic_alloc(dm_target::SIZE);
        self.mem
            .write_word((ti as i64 + dm_target::OPS) as u64, ops)?;
        let ret = self.indirect_call(ops, "dm_ctr", &[ti, ctr_arg])?;
        if (ret as i64) < 0 {
            return Err(Trap::BadRef("dm ctr failed".into()));
        }
        self.dm().targets.push((ti, ops));
        Ok(ti)
    }

    /// Submits one block I/O to a target: allocates a `bio` + buffer,
    /// fills it for writes, and dispatches the module's `map` callback
    /// (ops slot 8). Returns the bio address so callers can inspect the
    /// transformed data.
    pub fn dm_submit(&mut self, ti: Word, write: bool, len: u64, fill: u8) -> Result<Word, Trap> {
        let ops = self
            .dm()
            .targets
            .iter()
            .find(|&&(t, _)| t == ti)
            .map(|&(_, o)| o)
            .ok_or_else(|| Trap::BadRef("unknown dm target".into()))?;
        let b = self
            .kmalloc_cpu(bio::SIZE)
            .ok_or_else(|| Trap::BadRef("bio alloc".into()))?;
        self.mem.zero_range(b, bio::SIZE)?;
        let buf = self
            .kmalloc_cpu(len)
            .ok_or_else(|| Trap::BadRef("bio buf alloc".into()))?;
        for i in 0..len {
            self.mem
                .write(buf + i, u64::from(fill), lxfi_machine::Width::B1)?;
        }
        self.mem.write_word((b as i64 + bio::DATA) as u64, buf)?;
        self.mem.write_word((b as i64 + bio::LEN) as u64, len)?;
        self.mem
            .write_word((b as i64 + bio::RW) as u64, u64::from(write))?;
        let ret = self.indirect_call(ops + 8, "dm_map", &[ti, b])?;
        if (ret as i64) < 0 {
            return Err(Trap::BadRef("dm map failed".into()));
        }
        Ok(b)
    }

    /// Reads back a bio's payload (test observable).
    pub fn bio_payload(&self, b: Word) -> Result<Vec<u8>, Trap> {
        let data = self.mem.read_word((b as i64 + bio::DATA) as u64)?;
        let len = self.mem.read_word((b as i64 + bio::LEN) as u64)?;
        let mut out = vec![0u8; len as usize];
        self.mem.read_bytes(data, &mut out)?;
        Ok(out)
    }
}
