//! Persistence of client-defined scenarios: one file per `define`d
//! scenario under the definitions directory (`KBP_SERVICE_CACHE_DIR`),
//! written on every `define`, removed on redefinition, reloaded at
//! startup. Nothing else persists; every job solves cold.
//!
//! Files of any other name in the directory are ignored, including the
//! `.kbps` session files older releases wrote there.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Leading bytes of every persisted scenario definition.
pub const DEF_MAGIC: &[u8; 8] = b"KBPDEF01";

/// File extension of persisted scenario definitions.
pub const DEF_EXTENSION: &str = "kbpdef";

/// Why a definition file could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error (create/rename/read/write).
    Io(std::io::Error),
    /// The file is not a definition file (bad magic), or is truncated
    /// or malformed.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "definition file I/O failed: {e}"),
            PersistError::Format(e) => write!(f, "definition file format mismatch: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A client-registered DSL scenario as persisted in the definitions
/// directory: everything needed to rebuild the definition at startup (the
/// daemon re-compiles the source rather than trusting a serialized
/// compilation, so a format change in the compiler can never resurrect
/// a stale lowering).
///
/// # Format
///
/// Each file is `def-<fingerprint as 16 lowercase hex digits>.kbpdef`
/// holding
///
/// ```text
/// magic   [u8; 8]   b"KBPDEF01"
/// name    u64 LE length + bytes
/// owner   u64 LE length + bytes
/// source  u64 LE length + bytes
/// ```
///
/// Corrupt, truncated or mis-fingerprinted files are skipped at load:
/// definition persistence must never be able to take the daemon down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefinitionRecord {
    /// Wire name the scenario is registered under.
    pub name: String,
    /// Client identity that owns the definition.
    pub owner: String,
    /// The `.kbp` source text, re-compiled at load.
    pub source: String,
}

impl DefinitionRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            DEF_MAGIC.len() + 24 + self.name.len() + self.owner.len() + self.source.len(),
        );
        out.extend_from_slice(DEF_MAGIC);
        for field in [&self.name, &self.owner, &self.source] {
            out.extend_from_slice(&(field.len() as u64).to_le_bytes());
            out.extend_from_slice(field.as_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<DefinitionRecord, PersistError> {
        let Some(header) = bytes.get(..DEF_MAGIC.len()) else {
            return Err(PersistError::Format("file shorter than magic".into()));
        };
        if header != DEF_MAGIC {
            return Err(PersistError::Format("bad definition magic".into()));
        }
        let mut pos = DEF_MAGIC.len();
        let mut take_string = || -> Result<String, PersistError> {
            let raw = bytes
                .get(pos..pos + 8)
                .ok_or_else(|| PersistError::Format("truncated definition".into()))?;
            let mut b = [0u8; 8];
            b.copy_from_slice(raw);
            pos += 8;
            let len = usize::try_from(u64::from_le_bytes(b))
                .map_err(|_| PersistError::Format("length exceeds address space".into()))?;
            let raw = bytes
                .get(pos..pos.saturating_add(len))
                .ok_or_else(|| PersistError::Format("truncated definition".into()))?;
            pos += len;
            String::from_utf8(raw.to_vec())
                .map_err(|_| PersistError::Format("definition is not UTF-8".into()))
        };
        let name = take_string()?;
        let owner = take_string()?;
        let source = take_string()?;
        if pos != bytes.len() {
            return Err(PersistError::Format(format!(
                "{} trailing bytes after definition",
                bytes.len() - pos
            )));
        }
        Ok(DefinitionRecord {
            name,
            owner,
            source,
        })
    }
}

/// The definitions directory: one file per client-defined scenario,
/// named by its fingerprint.
#[derive(Debug, Clone)]
pub struct DefinitionStore {
    dir: PathBuf,
}

impl DefinitionStore {
    /// Opens (creating if necessary) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<DefinitionStore, PersistError> {
        fs::create_dir_all(dir)?;
        Ok(DefinitionStore {
            dir: dir.to_path_buf(),
        })
    }

    fn def_path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("def-{fingerprint:016x}.{DEF_EXTENSION}"))
    }

    /// Writes the scenario definition named by `fingerprint`, atomically
    /// replacing any previous file (write to a dot-prefixed temporary in
    /// the same directory, then rename: a crashed writer leaves the old
    /// file intact, and the temporary is invisible to
    /// [`load_definitions`](Self::load_definitions)).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if any filesystem step fails.
    /// Callers treat definition persistence as best-effort.
    pub fn save_definition(
        &self,
        fingerprint: u64,
        record: &DefinitionRecord,
    ) -> Result<(), PersistError> {
        let bytes = record.encode();
        let tmp = self.dir.join(format!(".def-{fingerprint:016x}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, self.def_path_for(fingerprint)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(PersistError::Io(e))
            }
        }
    }

    /// Loads every persisted scenario definition, ascending by
    /// fingerprint (a stable order so restore under a quota is
    /// deterministic). Corrupt, truncated or unreadable files are
    /// skipped — the caller additionally re-verifies each record's
    /// fingerprint against its file name before trusting it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory cannot be listed.
    pub fn load_definitions(&self) -> Result<Vec<(u64, DefinitionRecord)>, PersistError> {
        let mut defs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("def-")
                .and_then(|rest| rest.strip_suffix(&format!(".{DEF_EXTENSION}")))
            else {
                continue;
            };
            if stem.len() != 16 {
                continue;
            }
            let Ok(fp) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            if let Ok(record) = DefinitionRecord::decode(&bytes) {
                defs.push((fp, record));
            }
        }
        defs.sort_unstable_by_key(|(fp, _)| *fp);
        Ok(defs)
    }

    /// Removes the persisted definition for `fingerprint`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure other than the
    /// file already being gone.
    pub fn remove_definition(&self, fingerprint: u64) -> Result<(), PersistError> {
        match fs::remove_file(self.def_path_for(fingerprint)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(PersistError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_roundtrip_and_unknown_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!(
            "kbp-persist-def-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DefinitionStore::open(&dir).unwrap();
        assert!(store.load_definitions().unwrap().is_empty());

        let rec = DefinitionRecord {
            name: "ring_election".into(),
            owner: "10.0.0.7:55012".into(),
            source: "scenario ring_election {\n  agents a\n}\n".into(),
        };
        let other = DefinitionRecord {
            name: "two_generals".into(),
            owner: "local".into(),
            source: String::new(),
        };
        store.save_definition(9, &rec).unwrap();
        store.save_definition(4, &other).unwrap();
        assert_eq!(
            store.load_definitions().unwrap(),
            vec![(4, other), (9, rec.clone())],
            "sorted ascending by fingerprint"
        );

        // Files of any other name, such as the `.kbps` session files
        // older releases wrote here, are ignored.
        std::fs::write(dir.join(format!("{:016x}.kbps", 9u64)), b"old session").unwrap();
        assert_eq!(store.load_definitions().unwrap().len(), 2);

        // Corrupt and truncated definition files are skipped, not fatal.
        std::fs::write(
            dir.join(format!("def-{:016x}.{DEF_EXTENSION}", 2u64)),
            b"junk",
        )
        .unwrap();
        let truncated = &rec.encode()[..DEF_MAGIC.len() + 11];
        std::fs::write(
            dir.join(format!("def-{:016x}.{DEF_EXTENSION}", 3u64)),
            truncated,
        )
        .unwrap();
        let loaded = store.load_definitions().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].1, rec);

        // Trailing garbage after a valid record is rejected too.
        let mut padded = rec.encode();
        padded.push(0);
        assert!(matches!(
            DefinitionRecord::decode(&padded),
            Err(PersistError::Format(_))
        ));

        // Removal is idempotent and scoped to definitions.
        store.remove_definition(9).unwrap();
        store.remove_definition(9).unwrap();
        assert_eq!(store.load_definitions().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
