//! Helpers shared by the binary-level tests. The crates' own test
//! suites include this file by path, so every suite in the workspace
//! uses one per-test scratch directory.
#![allow(dead_code)] // each test binary uses a subset of the helpers

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static SEQ: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory owned by one test: unique to this process and
/// call, so tests running in parallel never share a file, and removed
/// with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(stem: &str) -> TempDir {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dex-test-{stem}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Write `content` to `name` inside the directory.
    pub fn write(&self, name: &str, content: impl AsRef<[u8]>) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
