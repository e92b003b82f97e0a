//! The netperf harness (Figure 12): measures per-packet cycles by
//! running real packets through the interpreted e1000 module, then feeds
//! the cost model in [`lxfi_kernel::netsim`].
//!
//! Calibration: simulated cycles are converted to testbed cycles with a
//! single factor chosen so the *stock* UDP TX row matches the paper's
//! 54% CPU at 3.1 M pkt/s. The same factor is applied to the LXFI rows,
//! so the relative overhead — the result under evaluation — comes
//! entirely from measurement.

use lxfi_kernel::netsim::NetSimConfig;
use lxfi_kernel::{Backend, IsolationMode, Kernel};
use lxfi_modules as mods;

/// Measured per-packet costs, in simulated cycles.
#[derive(Debug, Clone, Copy)]
pub struct PacketCosts {
    /// One transmitted packet (socket layer → driver → ring).
    pub tx: f64,
    /// One received packet (interrupt → poll → netif_rx → drain).
    pub rx: f64,
}

/// Boots a kernel with the e1000 bound to a NIC.
pub fn boot_e1000(mode: IsolationMode) -> (Kernel, u64) {
    boot_e1000_backend(mode, Backend::Interp)
}

/// [`boot_e1000`] with an explicit execution backend.
pub fn boot_e1000_backend(mode: IsolationMode, backend: Backend) -> (Kernel, u64) {
    boot_e1000_opts(mode, backend, lxfi_rewriter::RewriteOptions::default())
}

/// [`boot_e1000_backend`] with explicit rewriter options, used by the
/// guard-cost harness to compare rewrite strategies (e.g. loop-guard
/// hoisting on vs off) on identical dynamic workloads.
pub fn boot_e1000_opts(
    mode: IsolationMode,
    backend: Backend,
    opts: lxfi_rewriter::RewriteOptions,
) -> (Kernel, u64) {
    let mut k = Kernel::boot_with_options(mode, backend, opts);
    k.pci_add_device(0x8086, 0x100e, 11);
    k.load_module(mods::e1000::spec()).unwrap();
    k.enter(|k| k.pci_probe_all()).unwrap();
    let dev = *k.net().devices.last().unwrap();
    (k, dev)
}

/// Wall-clock nanoseconds per transmitted packet on a single CPU —
/// the host-time counterpart of [`measure_packet_costs`] (simulated
/// cycles are backend-invariant by design; host time is what the
/// compiled backend improves). Median of per-batch means, like the
/// multi-threaded harnesses.
pub fn measure_packet_wall_ns(mode: IsolationMode, backend: Backend, len: u64, n: u64) -> f64 {
    let (mut k, dev) = boot_e1000_backend(mode, backend);
    for _ in 0..32 {
        k.enter(|k| k.net_send_packet(dev, len)).unwrap();
    }
    const BATCH: u64 = 64;
    let mut batch_means = Vec::new();
    let mut sent = 0u64;
    while sent < n {
        let b = BATCH.min(n - sent);
        let t0 = std::time::Instant::now();
        for _ in 0..b {
            k.enter(|k| k.net_send_packet(dev, len)).unwrap();
        }
        batch_means.push(t0.elapsed().as_nanos() as f64 / b as f64);
        sent += b;
    }
    batch_means.sort_by(|a, b| a.total_cmp(b));
    batch_means[batch_means.len() / 2]
}

/// Measures per-packet TX and RX cycles over `n` packets of `len` bytes.
pub fn measure_packet_costs(mode: IsolationMode, len: u64, n: u64) -> PacketCosts {
    let (mut k, dev) = boot_e1000(mode);
    // Warm up (fills slab pages and writer-set structures).
    for _ in 0..8 {
        k.enter(|k| k.net_send_packet(dev, len)).unwrap();
    }
    let start = k.total_cycles();
    for _ in 0..n {
        k.enter(|k| k.net_send_packet(dev, len)).unwrap();
    }
    let tx = (k.total_cycles() - start) as f64 / n as f64;

    let start = k.total_cycles();
    let batches = n.div_ceil(16);
    for _ in 0..batches {
        k.enter(|k| k.net_deliver_rx(dev, 16)).unwrap();
        k.enter(|k| k.net_drain_rx()).unwrap();
    }
    let rx = (k.total_cycles() - start) as f64 / (batches * 16) as f64;
    PacketCosts { tx, rx }
}

/// One Figure 12 row.
#[derive(Debug, Clone)]
pub struct NetperfRow {
    /// Test name as in the paper's table.
    pub test: &'static str,
    /// Stock throughput (unit in `unit`).
    pub stock_tput: f64,
    /// LXFI throughput.
    pub lxfi_tput: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Stock CPU utilization (0..=1).
    pub stock_cpu: f64,
    /// LXFI CPU utilization (0..=1).
    pub lxfi_cpu: f64,
}

/// Paper-anchored offered rates (§8.4).
pub struct Offered {
    /// UDP TX messages/s the sender generates (paper stock: 3.1 M).
    pub udp_tx_pps: f64,
    /// UDP RX packets/s arriving from the wire (paper: 2.3 M).
    pub udp_rx_pps: f64,
}

impl Default for Offered {
    fn default() -> Self {
        Offered {
            udp_tx_pps: 3.1e6,
            udp_rx_pps: 2.3e6,
        }
    }
}

/// Generates the full Figure 12 table from measured packet costs.
pub fn figure12() -> Vec<NetperfRow> {
    let cfg = NetSimConfig::default();
    let offered = Offered::default();

    let stock_small = measure_packet_costs(IsolationMode::Stock, 64, 300);
    let lxfi_small = measure_packet_costs(IsolationMode::Lxfi, 64, 300);
    let stock_big = measure_packet_costs(IsolationMode::Stock, 1448, 300);
    let lxfi_big = measure_packet_costs(IsolationMode::Lxfi, 1448, 300);

    // Calibration factor: stock UDP TX pins at 54% CPU / 3.1 M pkt/s.
    let scale = 0.54 * cfg.capacity() / (offered.udp_tx_pps * stock_small.tx);

    let s = |c: f64| c * scale;

    let mut rows = Vec::new();

    // TCP_STREAM TX/RX: link-limited MTU frames.
    let frames = cfg.link_frame_rate();
    let r_stock = cfg.stream(frames, s(stock_big.tx), 1448);
    let r_lxfi = cfg.stream(frames, s(lxfi_big.tx), 1448);
    rows.push(NetperfRow {
        test: "TCP_STREAM TX",
        stock_tput: r_stock.throughput_bps / 1e6,
        lxfi_tput: r_lxfi.throughput_bps / 1e6,
        unit: "Mbit/s",
        stock_cpu: r_stock.cpu,
        lxfi_cpu: r_lxfi.cpu,
    });
    let r_stock = cfg.stream(frames, s(stock_big.rx), 1448);
    let r_lxfi = cfg.stream(frames, s(lxfi_big.rx), 1448);
    rows.push(NetperfRow {
        test: "TCP_STREAM RX",
        stock_tput: r_stock.throughput_bps / 1e6,
        lxfi_tput: r_lxfi.throughput_bps / 1e6,
        unit: "Mbit/s",
        stock_cpu: r_stock.cpu,
        lxfi_cpu: r_lxfi.cpu,
    });

    // UDP_STREAM TX: message-counted, CPU-bound under LXFI.
    let r_stock = cfg.stream(offered.udp_tx_pps, s(stock_small.tx), 64);
    let r_lxfi = cfg.stream(offered.udp_tx_pps, s(lxfi_small.tx), 64);
    rows.push(NetperfRow {
        test: "UDP_STREAM TX",
        stock_tput: r_stock.pps / 1e6,
        lxfi_tput: r_lxfi.pps / 1e6,
        unit: "M pkt/s",
        stock_cpu: r_stock.cpu,
        lxfi_cpu: r_lxfi.cpu,
    });
    // UDP_STREAM RX: wire-limited offered load.
    let r_stock = cfg.stream(offered.udp_rx_pps, s(stock_small.rx), 64);
    let r_lxfi = cfg.stream(offered.udp_rx_pps, s(lxfi_small.rx), 64);
    rows.push(NetperfRow {
        test: "UDP_STREAM RX",
        stock_tput: r_stock.pps / 1e6,
        lxfi_tput: r_lxfi.pps / 1e6,
        unit: "M pkt/s",
        stock_cpu: r_stock.cpu,
        lxfi_cpu: r_lxfi.cpu,
    });

    // RR: one small packet each way per transaction.
    let stock_txn = s(stock_small.tx + stock_small.rx);
    let lxfi_txn = s(lxfi_small.tx + lxfi_small.rx);
    for (name, one_switch) in [
        ("TCP_RR", false),
        ("UDP_RR", false),
        ("TCP_RR (1-switch)", true),
        ("UDP_RR (1-switch)", true),
    ] {
        // TCP transactions carry slightly more protocol work.
        let extra = if name.starts_with("TCP") { 1.15 } else { 1.0 };
        let r_stock = cfg.rr(stock_txn * extra, one_switch);
        let r_lxfi = cfg.rr(lxfi_txn * extra, one_switch);
        rows.push(NetperfRow {
            test: name,
            stock_tput: r_stock.tps / 1e3,
            lxfi_tput: r_lxfi.tps / 1e3,
            unit: "K Tx/s",
            stock_cpu: r_stock.cpu,
            lxfi_cpu: r_lxfi.cpu,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lxfi_costs_more_cycles_per_packet() {
        let stock = measure_packet_costs(IsolationMode::Stock, 64, 100);
        let lxfi = measure_packet_costs(IsolationMode::Lxfi, 64, 100);
        assert!(lxfi.tx > stock.tx * 1.3, "{stock:?} vs {lxfi:?}");
        assert!(lxfi.rx > stock.rx * 1.3, "{stock:?} vs {lxfi:?}");
    }

    #[test]
    fn figure12_shape_matches_paper() {
        let rows = figure12();
        let by_name = |n: &str| rows.iter().find(|r| r.test == n).unwrap().clone();

        // TCP throughput unchanged, CPU up (×2.2-3.7 in the paper).
        let tcp = by_name("TCP_STREAM TX");
        assert!((tcp.stock_tput - tcp.lxfi_tput).abs() / tcp.stock_tput < 0.01);
        assert!(tcp.lxfi_cpu > 1.5 * tcp.stock_cpu);

        // UDP TX drops and saturates the CPU (paper: −35% at 100%).
        let udp = by_name("UDP_STREAM TX");
        assert!(udp.lxfi_tput < 0.85 * udp.stock_tput, "{udp:?}");
        assert!(udp.lxfi_cpu > 0.99, "{udp:?}");

        // UDP RX: CPU saturates; throughput holds far better than TX
        // (the paper keeps 100% of RX throughput; we keep >75%: the
        // model charges every guard its Figure 13 cost, and those costs
        // summed over an RX packet exceed the CPU headroom the paper's
        // Figure 12 RX row implies).
        let udprx = by_name("UDP_STREAM RX");
        assert!(udprx.lxfi_tput > 0.75 * udprx.stock_tput, "{udprx:?}");
        assert!(udprx.lxfi_cpu > 0.99, "{udprx:?}");
        let tx_keep = udp.lxfi_tput / udp.stock_tput;
        let rx_keep = udprx.lxfi_tput / udprx.stock_tput;
        assert!(rx_keep > tx_keep, "RX holds up better than TX");

        // RR: relative LXFI slowdown worse at 1 switch.
        let rr = by_name("UDP_RR");
        let rr1 = by_name("UDP_RR (1-switch)");
        let keep = rr.lxfi_tput / rr.stock_tput;
        let keep1 = rr1.lxfi_tput / rr1.stock_tput;
        assert!(keep1 < keep, "lan keep {keep}, 1-switch keep {keep1}");
        assert!(rr1.stock_tput > rr.stock_tput);
    }
}
