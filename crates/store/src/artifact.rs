//! The versioned binary image of one compiled offline-flow output.
//!
//! An artifact holds everything the online stage needs so that a cache
//! hit skips synthesis, mapping and TPaR entirely: the instrumented
//! netlist (BLIF text plus `.par` annotations plus per-port wiring),
//! the mapping statistics, the bitstream layout, the shared BDD manager
//! and the generalized bitstream. The wire format is
//!
//! ```text
//! "PFDB"  magic (4 bytes)
//! u32     format version (FORMAT_VERSION)
//! u64     payload length in bytes
//! u64     FxHash checksum of the payload
//! ...     payload (ByteWriter encoding, see `to_bytes`)
//! ```
//!
//! Deserialization validates the magic, version, length and checksum
//! before touching the payload, and every structural invariant after —
//! a truncated or bit-flipped file is rejected with an error, never a
//! panic or an out-of-bounds index.

use crate::bytes::{checksum, ByteReader, ByteWriter};
use pfdbg_arch::{BitAddr, Bitstream, BitstreamLayout, IcapModel, LayoutRaw};
use pfdbg_core::{CompiledDesign, Instrumented, MapStats, PortInfo};
use pfdbg_netlist::{blif, ParamAnnotations};
use pfdbg_pconf::{Bdd, BddManager, GeneralizedBitstream, Scg};
use pfdbg_util::BitVec;

/// The artifact magic bytes.
pub const MAGIC: [u8; 4] = *b"PFDB";

/// Current format version; bumped on any wire-format change.
pub const FORMAT_VERSION: u32 = 1;

/// The serializable image of a compiled design.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Instrumented network as BLIF text.
    pub blif: String,
    /// `.par` annotations text.
    pub par: String,
    /// Per-port wiring metadata.
    pub ports: Vec<SerializedPort>,
    /// Mapping statistics.
    pub map_stats: (u64, u64, u64, u64),
    /// Bitstream layout fields.
    pub layout: LayoutRaw,
    /// BDD decision nodes (var, lo, hi), terminals omitted.
    pub bdd_nodes: Vec<(u32, u32, u32)>,
    /// Parameter count of the generalized bitstream.
    pub n_params: usize,
    /// Backing words of the base bitstream.
    pub base_words: Vec<u64>,
    /// Bit length of the base bitstream.
    pub base_len: usize,
    /// Tunable bits: (address, BDD node index).
    pub tunable: Vec<(u64, u32)>,
}

/// One trace port, flattened to plain strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializedPort {
    /// Trace output net name.
    pub name: String,
    /// Select parameter names, LSB first.
    pub sel_params: Vec<String>,
    /// Observed signal per select value.
    pub signals: Vec<String>,
}

impl Artifact {
    /// Capture a compiled design and the mapping statistics of the
    /// offline run that built it. The port model is not stored: it is a
    /// pure calibration, identical for every artifact.
    pub fn capture(design: &CompiledDesign, map_stats: &MapStats) -> Artifact {
        let CompiledDesign { inst, scg, layout, .. } = design;
        let gbs = scg.generalized();
        Artifact {
            blif: blif::write(&inst.network),
            par: inst.annotations.write(),
            ports: inst
                .ports
                .iter()
                .map(|p| SerializedPort {
                    name: p.name.clone(),
                    sel_params: p.sel_params.clone(),
                    signals: p.signals.clone(),
                })
                .collect(),
            map_stats: (
                map_stats.luts as u64,
                map_stats.tluts as u64,
                map_stats.tcons as u64,
                map_stats.depth as u64,
            ),
            layout: layout.to_raw(),
            bdd_nodes: scg.manager().export_nodes(),
            n_params: gbs.n_params,
            base_words: gbs.base.words().to_vec(),
            base_len: gbs.base.len(),
            tunable: gbs.tunable.iter().map(|&(a, f)| (a as u64, f.index())).collect(),
        }
    }

    /// Encode as the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _s = pfdbg_obs::span("store.encode");
        let mut w = ByteWriter::new();
        w.str(&self.blif);
        w.str(&self.par);
        w.size(self.ports.len());
        for p in &self.ports {
            w.str(&p.name);
            w.str_list(&p.sel_params);
            w.str_list(&p.signals);
        }
        let (luts, tluts, tcons, depth) = self.map_stats;
        w.u64(luts);
        w.u64(tluts);
        w.u64(tcons);
        w.u64(depth);
        // Layout.
        w.size(self.layout.n_bits);
        w.size(self.layout.frame_bits);
        w.size_list(&self.layout.clb_col_base);
        w.size(self.layout.clb_bits_per_tile);
        w.size(self.layout.clb_rows);
        w.size(self.layout.switch_base);
        w.size_list(&self.layout.switch_col_base);
        w.size_list(&self.layout.edge_addr);
        // BDD manager.
        w.size(self.bdd_nodes.len());
        for &(var, lo, hi) in &self.bdd_nodes {
            w.u32(var);
            w.u32(lo);
            w.u32(hi);
        }
        // Generalized bitstream.
        w.size(self.n_params);
        w.size(self.base_len);
        w.u64_list(&self.base_words);
        w.size(self.tunable.len());
        for &(addr, f) in &self.tunable {
            w.u64(addr);
            w.u32(f);
        }
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode and validate the wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, String> {
        let _s = pfdbg_obs::span("store.decode");
        let mut h = ByteReader::new(bytes);
        let magic = [h.u8()?, h.u8()?, h.u8()?, h.u8()?];
        if magic != MAGIC {
            return Err(format!("bad magic {magic:02x?} (not a pfdbg artifact)"));
        }
        let version = h.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!("artifact format v{version}, this build reads v{FORMAT_VERSION}"));
        }
        let payload_len = h.size()?;
        let sum = h.u64()?;
        if h.remaining() != payload_len {
            return Err(format!(
                "payload length mismatch: header says {payload_len}, file has {}",
                h.remaining()
            ));
        }
        let payload = &bytes[bytes.len() - payload_len..];
        if checksum(payload) != sum {
            return Err("checksum mismatch (artifact corrupted)".into());
        }

        let mut r = ByteReader::new(payload);
        let blif = r.str()?;
        let par = r.str()?;
        let n_ports = r.size()?;
        let mut ports = Vec::with_capacity(n_ports.min(1 << 16));
        for _ in 0..n_ports {
            ports.push(SerializedPort {
                name: r.str()?,
                sel_params: r.str_list()?,
                signals: r.str_list()?,
            });
        }
        let map_stats = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let layout = LayoutRaw {
            n_bits: r.size()?,
            frame_bits: r.size()?,
            clb_col_base: r.size_list()?,
            clb_bits_per_tile: r.size()?,
            clb_rows: r.size()?,
            switch_base: r.size()?,
            switch_col_base: r.size_list()?,
            edge_addr: r.size_list()?,
        };
        let n_bdd = r.size()?;
        let mut bdd_nodes = Vec::with_capacity(n_bdd.min(1 << 24));
        for _ in 0..n_bdd {
            bdd_nodes.push((r.u32()?, r.u32()?, r.u32()?));
        }
        let n_params = r.size()?;
        let base_len = r.size()?;
        let base_words = r.u64_list()?;
        let n_tunable = r.size()?;
        let mut tunable = Vec::with_capacity(n_tunable.min(1 << 24));
        for _ in 0..n_tunable {
            tunable.push((r.u64()?, r.u32()?));
        }
        r.finish()?;
        Ok(Artifact {
            blif,
            par,
            ports,
            map_stats,
            layout,
            bdd_nodes,
            n_params,
            base_words,
            base_len,
            tunable,
        })
    }

    /// Rebuild the live structures: parse the netlist, re-apply the
    /// parameter markings, reconstruct the BDD manager, the generalized
    /// bitstream and the layout — the compiled design, beside the
    /// mapping statistics it was captured with. Every cross-reference
    /// is validated so a corrupted-but-checksum-colliding artifact
    /// still cannot index out of bounds.
    pub fn instantiate(self) -> Result<(CompiledDesign, MapStats), String> {
        let _s = pfdbg_obs::span("store.instantiate");
        let mut network = blif::parse(&self.blif).map_err(|e| format!("artifact BLIF: {e}"))?;
        let annotations =
            ParamAnnotations::parse(&self.par).map_err(|e| format!("artifact .par: {e}"))?;
        // BLIF does not carry the parameter attribute; restore it from
        // the annotations (the same contract as `pfdbg instrument
        // --out/--par` output).
        for pname in &annotations.params {
            let id = network
                .find(pname)
                .ok_or_else(|| format!("annotated parameter {pname} missing from netlist"))?;
            network.set_param(id, true);
        }
        let ports: Vec<PortInfo> = self
            .ports
            .into_iter()
            .map(|p| PortInfo { name: p.name, sel_params: p.sel_params, signals: p.signals })
            .collect();
        for p in &ports {
            if network.find(&p.name).is_none() {
                return Err(format!("trace port {} missing from netlist", p.name));
            }
        }
        let inst = Instrumented { network, annotations, ports };
        if inst.annotations.len() != self.n_params {
            return Err(format!(
                "parameter count mismatch: .par has {}, bitstream has {}",
                inst.annotations.len(),
                self.n_params
            ));
        }

        let manager = BddManager::from_exported(&self.bdd_nodes)?;
        let base = Bitstream::from_bits(BitVec::from_words(self.base_words, self.base_len)?);
        if base.len() != self.layout.n_bits {
            return Err(format!(
                "base bitstream has {} bits, layout expects {}",
                base.len(),
                self.layout.n_bits
            ));
        }
        let mut tunable: Vec<(BitAddr, Bdd)> = Vec::with_capacity(self.tunable.len());
        let mut last_addr = None;
        for (addr, f) in self.tunable {
            let addr = usize::try_from(addr).map_err(|_| "tunable address overflow")?;
            if addr >= base.len() {
                return Err(format!("tunable address {addr} beyond the bitstream"));
            }
            if last_addr.is_some_and(|a| a >= addr) {
                return Err("tunable addresses not strictly ascending".into());
            }
            last_addr = Some(addr);
            if f as usize >= manager.n_nodes() {
                return Err(format!("tunable function {f} beyond the BDD table"));
            }
            tunable.push((addr, Bdd::from_index(f)));
        }
        let gbs = GeneralizedBitstream { base, tunable, n_params: self.n_params };
        let scg = Scg::new(manager, gbs);
        // Every variable a tunable function reads must be a parameter:
        // the evaluator indexes the parameter vector with it.
        let live = scg.manager().export_nodes();
        if let Some(&(var, _, _)) = live.iter().find(|n| n.0 as usize >= self.n_params) {
            return Err(format!("BDD variable {var} beyond the {} parameters", self.n_params));
        }
        let layout = BitstreamLayout::from_raw(self.layout)?;
        let (luts, tluts, tcons, depth) = self.map_stats;
        let map_stats = MapStats {
            luts: luts as usize,
            tluts: tluts as usize,
            tcons: tcons as usize,
            depth: depth as u32,
        };
        Ok((CompiledDesign::new(inst, scg, layout, IcapModel::paper()), map_stats))
    }
}
