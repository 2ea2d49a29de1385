//! The content-addressed on-disk store.
//!
//! Artifacts are keyed by a fingerprint of everything that determines
//! the offline-flow output: the instrumented netlist, its parameter
//! annotations and port wiring, and the [`OfflineConfig`]. Two runs on
//! the same inputs hash to the same key, so the second compile loads
//! the artifact instead of re-running synth/map/TPaR — the whole point
//! of splitting the flow into a generic and a specialization stage.

use crate::artifact::{Artifact, FORMAT_VERSION};
use pfdbg_core::{offline, CompiledDesign, Instrumented, MapStats, OfflineConfig};
use pfdbg_netlist::blif;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Whether a compile was served from the store or recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Loaded from a stored artifact; offline flow skipped.
    Hit,
    /// Offline flow ran; the artifact was stored for next time.
    Miss,
}

/// A directory of compiled-design artifacts, one file per fingerprint.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, String> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create store dir {}: {e}", root.display()))?;
        Ok(ArtifactStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Content fingerprint of one compile: the instrumented design
    /// (netlist text, `.par` text, port wiring) plus the offline
    /// configuration and the artifact format version. Anything that can
    /// change the offline output must feed this hash.
    pub fn fingerprint(inst: &Instrumented, cfg: &OfflineConfig) -> String {
        let mut h = pfdbg_util::hash::FxHasher::default();
        h.write(blif::write(&inst.network).as_bytes());
        h.write(inst.annotations.write().as_bytes());
        for p in &inst.ports {
            h.write(p.name.as_bytes());
            for s in &p.sel_params {
                h.write(s.as_bytes());
            }
            for s in &p.signals {
                h.write(s.as_bytes());
            }
        }
        h.write(format!("{cfg:?}").as_bytes());
        h.write_u32(FORMAT_VERSION);
        format!("{:016x}", h.finish())
    }

    /// The on-disk path an artifact with this key lives at.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.pfdbg"))
    }

    /// Load and instantiate the artifact for `key`: the compiled design
    /// and the mapping statistics it was stored with. `Ok(None)` when
    /// the store has no entry; an existing-but-invalid file is an error.
    pub fn load(&self, key: &str) -> Result<Option<(CompiledDesign, MapStats)>, String> {
        let _s = pfdbg_obs::span("store.load");
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let artifact =
            Artifact::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        artifact.instantiate().map(Some).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the artifact for `key` atomically: encode to a temp file in
    /// the store directory, then rename over the final path. A reader
    /// never observes a half-written artifact, and a crash leaves at
    /// worst a stale `.tmp` file.
    pub fn save(&self, key: &str, artifact: &Artifact) -> Result<PathBuf, String> {
        let _s = pfdbg_obs::span("store.save");
        let path = self.path_for(key);
        let tmp = self.root.join(format!("{key}.tmp.{}", std::process::id()));
        let bytes = artifact.to_bytes();
        std::fs::write(&tmp, &bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot move artifact into place at {}: {e}", path.display())
        })?;
        Ok(path)
    }

    /// The store-aware offline flow: return the cached compile when the
    /// fingerprint matches, otherwise run [`pfdbg_core::offline`] and
    /// store the result. A corrupted or unreadable cache entry is
    /// treated as a miss (and overwritten), never a hard failure —
    /// the store must not be able to make a compile fail that would
    /// succeed without it.
    pub fn offline_cached(
        &self,
        inst: &Instrumented,
        cfg: &OfflineConfig,
    ) -> Result<(CompiledDesign, CacheOutcome), String> {
        let _s = pfdbg_obs::span("store.offline_cached");
        let key = Self::fingerprint(inst, cfg);
        match self.load(&key) {
            Ok(Some((design, _))) => {
                pfdbg_obs::counter_add("store.hit", 1);
                return Ok((design, CacheOutcome::Hit));
            }
            Ok(None) => {}
            Err(e) => {
                pfdbg_obs::counter_add("store.invalid", 1);
                eprintln!("pfdbg-store: discarding invalid artifact: {e}");
            }
        }
        pfdbg_obs::counter_add("store.miss", 1);
        let off = offline(inst, cfg)?;
        let map_stats = off.map_stats;
        let design = CompiledDesign::from_offline(inst.clone(), off);
        self.save(&key, &Artifact::capture(&design, &map_stats))?;
        Ok((design, CacheOutcome::Miss))
    }
}
