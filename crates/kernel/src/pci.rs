//! The PCI subsystem (Figure 1 / Figure 4 of the paper).
//!
//! Drivers register a `probe` callback; the kernel invokes it once per
//! matching device with the Figure 4 annotations: the callee principal is
//! named by the `pci_dev` pointer, a `REF(struct pci_dev)` capability is
//! copied in, and transferred back if probing fails.

use std::sync::Arc;

use lxfi_core::iface::Param;
use lxfi_machine::{Trap, Word};

use crate::kernel::KernelCpu;
use crate::types::pci_dev;

/// The Figure 4 annotation for `pci_driver.probe`.
pub const PCI_PROBE_ANN: &str = "principal(pcidev) \
     pre(copy(ref(struct pci_dev), pcidev)) \
     post(if (return < 0) transfer(ref(struct pci_dev), pcidev))";

#[derive(Debug, Default)]
/// PCI subsystem state.
pub struct PciState {
    /// Registered devices (`pci_dev` addresses).
    pub devices: Vec<Word>,
    /// Registered drivers: kernel-static slots holding the probe pointer.
    pub driver_slots: Vec<Word>,
    /// (device, driver slot) pairs already bound.
    pub bound: Vec<(Word, Word)>,
}

/// Registers PCI exports and interface annotations.
pub fn register(k: &mut KernelCpu) {
    k.define_sig(
        "pci_probe",
        vec![Param::ptr("pcidev", "struct pci_dev")],
        PCI_PROBE_ANN,
    );

    k.export(
        "pci_register_driver",
        vec![Param::scalar("probe")],
        Some("pre(check(call, probe))"),
        Arc::new(|k, args| {
            // The kernel stores the (capability-checked) probe pointer in
            // its own memory; no module holds WRITE over the slot, so
            // later dispatches take the indirect-call fast path.
            let slot = k.kstatic_alloc(8);
            k.mem.write_word(slot, args[0])?;
            k.pci().driver_slots.push(slot);
            Ok(0)
        }),
    );

    k.export(
        "pci_enable_device",
        vec![Param::ptr("pcidev", "struct pci_dev")],
        Some("pre(check(ref(struct pci_dev), pcidev))"),
        Arc::new(|k, args| {
            let dev = args[0];
            let cur = k.mem.read_word((dev as i64 + pci_dev::ENABLED) as u64)?;
            k.mem
                .write_word((dev as i64 + pci_dev::ENABLED) as u64, cur + 1)?;
            Ok(0)
        }),
    );

    k.export(
        "pci_iomap",
        vec![Param::ptr("pcidev", "struct pci_dev")],
        Some(
            "pre(check(ref(struct pci_dev), pcidev)) \
             post(if (return != 0) transfer(write, return, 4096))",
        ),
        Arc::new(|k, args| {
            let dev = args[0];
            k.mem.read_word((dev as i64 + pci_dev::MMIO_BASE) as u64)
        }),
    );

    // The statically-coupled check preceding `lxfi_princ_alias` in
    // Figure 4 (line 72): verifies the current principal holds the
    // REF(struct pci_dev) capability it is about to alias.
    k.export_runtime(
        "lxfi_check_pcidev",
        vec![Param::ptr("pcidev", "struct pci_dev")],
        "pre(check(ref(struct pci_dev), pcidev))",
        Arc::new(|_k, _args| Ok(0)),
    );
}

impl KernelCpu {
    /// Creates a PCI device (platform discovery); allocates its struct
    /// and a 4 KiB simulated MMIO window.
    pub fn pci_add_device(&mut self, vendor: u32, device: u32, irq: u32) -> Word {
        let dev = self.kstatic_alloc(pci_dev::SIZE);
        let mmio = self.kstatic_alloc(4096);
        self.mem
            .write(
                (dev as i64 + pci_dev::VENDOR) as u64,
                u64::from(vendor),
                lxfi_machine::Width::B4,
            )
            .unwrap();
        self.mem
            .write(
                (dev as i64 + pci_dev::DEVICE) as u64,
                u64::from(device),
                lxfi_machine::Width::B4,
            )
            .unwrap();
        self.mem
            .write_word((dev as i64 + pci_dev::IRQ) as u64, u64::from(irq))
            .unwrap();
        self.mem
            .write_word((dev as i64 + pci_dev::MMIO_BASE) as u64, mmio)
            .unwrap();
        self.mem
            .write_word((dev as i64 + pci_dev::MMIO_LEN) as u64, 4096)
            .unwrap();
        self.pci().devices.push(dev);
        dev
    }

    /// Binds unbound devices to registered drivers by invoking each
    /// driver's `probe` through its kernel slot (the Figure 1 line 20
    /// dispatch). Returns the number of successful probes.
    pub fn pci_probe_all(&mut self) -> Result<u64, Trap> {
        let mut ok = 0;
        let devices = self.pci().devices.clone();
        let slots = self.pci().driver_slots.clone();
        for dev in devices {
            if self.pci().bound.iter().any(|&(d, _)| d == dev) {
                continue;
            }
            // Reset the device before offering it to a driver: residual
            // WRITE coverage over its BAR or config struct — a crashed
            // previous tenant's grants, kept on record by its retired
            // principals since teardown — is scrubbed now that the
            // hardware is being reused, mirroring `scrub_window`'s rule
            // that a dead module's poison lifts exactly at legitimate
            // reuse. A no-op on first probe (nothing granted yet).
            let mmio = self
                .mem
                .read_word((dev as i64 + pci_dev::MMIO_BASE) as u64)
                .unwrap_or(0);
            let mmio_len = self
                .mem
                .read_word((dev as i64 + pci_dev::MMIO_LEN) as u64)
                .unwrap_or(0);
            if mmio != 0 && mmio_len != 0 {
                self.rt.revoke_write_overlapping_everywhere(mmio, mmio_len);
            }
            self.rt
                .revoke_write_overlapping_everywhere(dev, pci_dev::SIZE);
            for slot in &slots {
                // Snapshot so the net devices this probe registers are
                // identifiable afterwards for RX binding.
                let ndevs_before = self.net().devices.len();
                let ret = self.indirect_call(*slot, "pci_probe", &[dev])?;
                if (ret as i64) >= 0 {
                    self.pci().bound.push((dev, *slot));
                    // Bind the RX ring of every NAPI net device the
                    // probe registered (no-op for non-NAPI drivers).
                    let new_ndevs: Vec<Word> = self.net().devices[ndevs_before..].to_vec();
                    for ndev in new_ndevs {
                        self.net_rx_bind(ndev, dev);
                    }
                    ok += 1;
                    break;
                }
            }
        }
        Ok(ok)
    }
}
