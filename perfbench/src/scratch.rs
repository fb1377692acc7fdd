//! Where the benchmark may write: the build directory (`$CARGO_TARGET_DIR`,
//! else `target/`) and nothing else.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// `<build dir>/perfbench`: the only directory the benchmark writes in.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

/// A fresh directory under [`output_dir`] that is removed, with
/// everything in it, when dropped. CSV files and checkpoint frames go
/// here.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<output dir>/tmp-<pid>-<nanos>`.
    pub fn new() -> Result<ScratchDir, String> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = output_dir().join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory (emptied first if it exists).
    pub fn fresh_subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
