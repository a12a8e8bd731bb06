//! Run metadata stamped into every exported artifact.
//!
//! `PROFILE_repro.json`, `MONITOR_serve.json` and the incident log are
//! observations of one revision, one machine, one thread count.
//! Without provenance they are uncomparable across runs, so every
//! export leads with a `meta` object capturing the git revision, the
//! effective worker count (the `DG_PAR_THREADS` override or the
//! detected parallelism), the experiment scale, and the host
//! architecture/OS pair. Everything is gathered without spawning a
//! subprocess — the git SHA is read straight out of `.git/`.

use crate::experiments::Scale;
use crate::json::ObjectWriter;
use std::path::Path;

/// Provenance for one exported artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Commit SHA of the working tree, or `"unknown"` outside a git
    /// checkout.
    pub git_sha: String,
    /// Effective `dg-par` worker count ([`dg_par::default_workers`],
    /// which honours `DG_PAR_THREADS`).
    pub threads: usize,
    /// Experiment scale flag (`"small"` or `"paper"`).
    pub scale: &'static str,
    /// Host `<arch>-<os>` pair, e.g. `x86_64-linux`.
    pub host: String,
    /// Active SIMD lane ([`dg_simd::lane`]: `"avx2"` when the CPU has
    /// it, else `"scalar"`).
    pub simd: &'static str,
}

impl RunMeta {
    /// Capture the current process's provenance.
    #[must_use]
    pub fn capture(scale: Scale) -> Self {
        RunMeta {
            git_sha: git_head_sha(Path::new(".git")),
            threads: dg_par::default_workers(),
            scale: match scale {
                Scale::Small => "small",
                Scale::Medium => "medium",
                Scale::Paper => "paper",
            },
            host: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
            simd: dg_simd::lane().name(),
        }
    }

    /// Render as a JSON object whose braces sit at `indent` two-space
    /// levels.
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let mut o = ObjectWriter::with_indent(indent);
        o.str_field("git_sha", &self.git_sha)
            .u64_field("threads", self.threads as u64)
            .str_field("scale", self.scale)
            .str_field("host", &self.host)
            .str_field("simd", self.simd);
        o.finish()
    }
}

/// Resolve HEAD to a commit SHA by reading the repository files
/// directly: a detached HEAD holds the SHA inline, a symbolic HEAD
/// (`ref: refs/heads/x`) points at a loose ref file, and refs that have
/// been packed live in `packed-refs`. Returns `"unknown"` when any
/// step fails — provenance must never abort an export.
///
/// Handles linked worktrees: there `.git` is not a directory but a
/// one-line file `gitdir: <path>` pointing at the worktree's private
/// git dir (which holds `HEAD`), and that dir's `commondir` file points
/// back at the shared repository where `refs/` and `packed-refs` live.
/// Before this indirection was followed, every export from a worktree
/// was stamped `git_sha: "unknown"`.
fn git_head_sha(git_dir: &Path) -> String {
    let Some(git_dir) = resolve_git_dir(git_dir) else {
        return "unknown".to_string();
    };
    let head = match std::fs::read_to_string(git_dir.join("HEAD")) {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file holds the SHA itself.
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    let refname = refname.trim();

    // Per-worktree refs resolve against the worktree git dir first,
    // then the common dir (for a plain checkout both are the same
    // directory and the second probe is skipped).
    let common = common_dir(&git_dir);
    let mut ref_dirs: Vec<&Path> = vec![&git_dir];
    if common != git_dir {
        ref_dirs.push(&common);
    }
    for dir in &ref_dirs {
        if let Ok(sha) = std::fs::read_to_string(dir.join(refname)) {
            let sha = sha.trim();
            if !sha.is_empty() {
                return sha.to_string();
            }
        }
    }
    // Packed refs always live in the common dir.
    if let Ok(packed) = std::fs::read_to_string(common.join("packed-refs")) {
        for line in packed.lines() {
            if let Some((sha, name)) = line.split_once(' ') {
                if name.trim() == refname && !sha.starts_with('#') {
                    return sha.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// Follow a `gitdir: <path>` redirection file. In a linked worktree
/// `.git` is such a file; relative targets resolve against the file's
/// own directory. A bounded number of hops guards against a cyclic
/// redirection ever looping the exporter.
fn resolve_git_dir(path: &Path) -> Option<std::path::PathBuf> {
    let mut dir = path.to_path_buf();
    for _ in 0..4 {
        if dir.is_dir() {
            return Some(dir);
        }
        let contents = std::fs::read_to_string(&dir).ok()?;
        let target = contents.trim().strip_prefix("gitdir:")?.trim();
        let target = Path::new(target);
        dir = if target.is_absolute() {
            target.to_path_buf()
        } else {
            dir.parent()?.join(target)
        };
    }
    None
}

/// The directory holding the shared `refs/` and `packed-refs`: the
/// worktree git dir's `commondir` file points at it (usually `../..`);
/// a plain checkout has no such file and is its own common dir.
fn common_dir(git_dir: &Path) -> std::path::PathBuf {
    match std::fs::read_to_string(git_dir.join("commondir")) {
        Ok(c) => {
            let target = Path::new(c.trim());
            if target.is_absolute() {
                target.to_path_buf()
            } else {
                git_dir.join(target)
            }
        }
        Err(_) => git_dir.to_path_buf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn capture_renders_valid_json() {
        let meta = RunMeta::capture(Scale::Small);
        assert_eq!(meta.scale, "small");
        assert!(meta.threads > 0);
        assert!(meta.host.contains('-'));
        let parsed = Json::parse(&meta.to_json(0)).unwrap();
        assert_eq!(parsed.get("scale").unwrap().as_str(), Some("small"));
        assert!(parsed.get("threads").unwrap().as_u64().unwrap() > 0);
        assert!(parsed.get("git_sha").unwrap().as_str().is_some());
        let lane = parsed.get("simd").unwrap().as_str().unwrap();
        assert!(["scalar", "avx2"].contains(&lane), "unexpected lane {lane}");
    }

    #[test]
    fn head_sha_resolves_symbolic_loose_packed_and_detached() {
        let dir = std::env::temp_dir().join("dg_bench_meta_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();

        // Missing HEAD.
        assert_eq!(git_head_sha(&dir), "unknown");

        // Symbolic HEAD -> loose ref file.
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("refs/heads/main"), "aabbcc\n").unwrap();
        assert_eq!(git_head_sha(&dir), "aabbcc");

        // Symbolic HEAD -> packed ref.
        std::fs::remove_file(dir.join("refs/heads/main")).unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\nddeeff refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_head_sha(&dir), "ddeeff");

        // Detached HEAD.
        std::fs::write(dir.join("HEAD"), "112233\n").unwrap();
        assert_eq!(git_head_sha(&dir), "112233");
    }

    #[test]
    fn head_sha_follows_worktree_gitdir_redirection() {
        // Layout of `git worktree add`: the worktree's `.git` is a
        // redirection *file*, its target holds HEAD, and `commondir`
        // points back at the shared repository with the actual refs.
        let root = std::env::temp_dir().join("dg_bench_meta_worktree_test");
        let _ = std::fs::remove_dir_all(&root);
        let main_git = root.join("repo/.git");
        let wt_git = main_git.join("worktrees/wt1");
        let wt = root.join("wt");
        std::fs::create_dir_all(main_git.join("refs/heads")).unwrap();
        std::fs::create_dir_all(&wt_git).unwrap();
        std::fs::create_dir_all(&wt).unwrap();

        std::fs::write(main_git.join("refs/heads/feature"), "c0ffee\n").unwrap();
        std::fs::write(wt_git.join("HEAD"), "ref: refs/heads/feature\n").unwrap();
        std::fs::write(wt_git.join("commondir"), "../..\n").unwrap();

        // Relative redirection, resolved against the `.git` file's dir.
        std::fs::write(wt.join(".git"), "gitdir: ../repo/.git/worktrees/wt1\n").unwrap();
        assert_eq!(git_head_sha(&wt.join(".git")), "c0ffee");

        // Absolute redirection.
        std::fs::write(
            wt.join(".git"),
            format!("gitdir: {}\n", wt_git.display()),
        )
        .unwrap();
        assert_eq!(git_head_sha(&wt.join(".git")), "c0ffee");

        // Packed ref reached through commondir.
        std::fs::remove_file(main_git.join("refs/heads/feature")).unwrap();
        std::fs::write(main_git.join("packed-refs"), "facade refs/heads/feature\n").unwrap();
        assert_eq!(git_head_sha(&wt.join(".git")), "facade");

        // Detached HEAD inside the worktree git dir.
        std::fs::write(wt_git.join("HEAD"), "deadbeef\n").unwrap();
        assert_eq!(git_head_sha(&wt.join(".git")), "deadbeef");

        // A cyclic redirection must terminate as "unknown".
        std::fs::write(wt.join(".git"), "gitdir: .git\n").unwrap();
        assert_eq!(git_head_sha(&wt.join(".git")), "unknown");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn real_checkout_yields_a_sha() {
        // The workspace itself is a git checkout; whatever state it is
        // in, resolution must not panic, and in CI it finds a real SHA.
        let sha = RunMeta::capture(Scale::Paper).git_sha;
        assert!(!sha.is_empty());
    }
}
