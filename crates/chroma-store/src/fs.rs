//! The filesystem under [`DiskStore`](crate::DiskStore): an [`Fs`]
//! trait covering exactly the calls the store makes, [`OsFs`]
//! (`std::fs`), and [`MemFs`], an in-memory disk with the persistence
//! model of Pillai et al., "All File Systems Are Not Created Equal"
//! (OSDI 2014). [`MemFs::crash`] drops every byte and directory entry
//! no sync made durable, so a missing fsync shows up as lost data at
//! the next open. A directory made by [`Fs::create_dir_all`] is an
//! entry of its parent like a file, durable only once that parent is
//! synced; a root (`/`, or a one-component relative path, whose parent
//! is the working directory) is durable as soon as it exists.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// An open file the store appends to. Every method returns the
/// underlying I/O error. Methods take `&self` so one handle can be
/// synced by one thread while another appends through it.
pub trait FsFile: Send + Sync + std::fmt::Debug {
    /// Appends `bytes` at the end of the file.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Cuts (or zero-extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Makes the file's bytes durable (`fsync`).
    fn sync(&self) -> io::Result<()>;
}

/// The filesystem calls a [`DiskStore`](crate::DiskStore) makes. Every
/// method returns the underlying I/O error; a missing file or
/// directory is `NotFound`.
pub trait Fs: Send + Sync + std::fmt::Debug {
    /// Creates `path` for appending, emptying it if it exists. (A
    /// [`MemFs`] makes a new file, durable only once its directory is
    /// synced; the store never re-creates a file in place.)
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Opens the existing file `path` for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Reads the whole file `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens `path` for one sequential pass: its length and a reader.
    fn open_read(&self, path: &Path) -> io::Result<(u64, Box<dyn Read>)>;
    /// Renames `from` to `to`, replacing any file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// The names of the files in directory `dir`, unordered.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Makes the entries of directory `dir` durable (`fsync` on it).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

impl FsFile for File {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        (&*self).write_all(bytes)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync(&self) -> io::Result<()> {
        self.sync_all()
    }
}

/// The real filesystem, through `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsFs;

impl Fs for OsFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn open_read(&self, path: &Path) -> io::Result<(u64, Box<dyn Read>)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok((len, Box::new(io::BufReader::new(file))))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        fs::read_dir(dir)?
            .map(|entry| Ok(entry?.file_name().to_string_lossy().into_owned()))
            .collect()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// An in-memory disk that loses what was never synced when it
/// [`crash`](MemFs::crash)es: each file keeps its written and its
/// durable bytes, and a directory entry — a file or a subdirectory —
/// is durable once its directory is synced (the persistence model of
/// Pillai et al., OSDI 2014).
#[derive(Clone, Debug, Default)]
pub struct MemFs {
    state: Arc<Mutex<MemState>>,
}

#[derive(Default)]
struct MemState {
    /// Bumped by every crash: file handles opened before it are dead.
    epoch: u64,
    next_inode: u64,
    inodes: HashMap<u64, Inode>,
    /// Directory entries as running code sees them.
    entries: BTreeMap<PathBuf, u64>,
    /// Directory entries a crash keeps.
    durable_entries: BTreeMap<PathBuf, u64>,
    /// Directories as running code sees them.
    dirs: BTreeSet<PathBuf>,
    /// Directories whose entry a crash keeps (roots always).
    durable_dirs: BTreeSet<PathBuf>,
}

#[derive(Default)]
struct Inode {
    written: Vec<u8>,
    durable: Vec<u8>,
    /// `written` and `durable` agree on the bytes before this offset.
    synced_upto: usize,
}

impl MemFs {
    /// Creates an empty disk.
    #[must_use]
    pub fn new() -> Self {
        MemFs::default()
    }

    /// Power loss: every directory entry and file byte that no sync
    /// made durable is gone, and every open file handle fails from now
    /// on. A directory survives only if its entry and every ancestor's
    /// are durable, and takes the entries inside it along when it goes.
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.epoch += 1;
        let kept: BTreeSet<PathBuf> = st
            .durable_dirs
            .iter()
            .filter(|dir| {
                dir.ancestors()
                    .filter(|a| !a.as_os_str().is_empty())
                    .all(|a| st.durable_dirs.contains(a))
            })
            .cloned()
            .collect();
        st.entries = st
            .durable_entries
            .iter()
            .filter(|(path, _)| path.parent().is_some_and(|dir| kept.contains(dir)))
            .map(|(path, &id)| (path.clone(), id))
            .collect();
        st.durable_entries = st.entries.clone();
        st.dirs = kept.clone();
        st.durable_dirs = kept;
        let live: BTreeSet<u64> = st.entries.values().copied().collect();
        st.inodes.retain(|id, _| live.contains(id));
        for inode in st.inodes.values_mut() {
            inode.written.clone_from(&inode.durable);
            inode.synced_upto = inode.written.len();
        }
    }

    fn handle(&self, st: &MemState, inode: u64) -> Box<dyn FsFile> {
        Box::new(MemFile {
            state: Arc::clone(&self.state),
            epoch: st.epoch,
            inode,
        })
    }
}

impl std::fmt::Debug for MemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} files, {} crashes", self.entries.len(), self.epoch)
    }
}

impl Fs for MemFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let mut st = self.state.lock();
        if !path.parent().is_some_and(|dir| st.dirs.contains(dir)) || st.dirs.contains(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        st.next_inode += 1;
        let id = st.next_inode;
        st.inodes.insert(id, Inode::default());
        st.entries.insert(path.to_path_buf(), id);
        Ok(self.handle(&st, id))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let st = self.state.lock();
        let id = *st.entries.get(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(self.handle(&st, id))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        let id = st.entries.get(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(st.inodes[id].written.clone())
    }

    fn open_read(&self, path: &Path) -> io::Result<(u64, Box<dyn Read>)> {
        let bytes = self.read(path)?;
        Ok((bytes.len() as u64, Box::new(io::Cursor::new(bytes))))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let id = st.entries.remove(from).ok_or(io::ErrorKind::NotFound)?;
        st.entries.insert(to.to_path_buf(), id);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.entries.remove(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.state.lock();
        if !st.dirs.contains(dir) {
            return Err(io::ErrorKind::NotFound.into());
        }
        Ok(st
            .entries
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .filter_map(|path| path.file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        for ancestor in dir.ancestors().filter(|a| !a.as_os_str().is_empty()) {
            st.dirs.insert(ancestor.to_path_buf());
            if ancestor.parent().is_none_or(|p| p.as_os_str().is_empty()) {
                st.durable_dirs.insert(ancestor.to_path_buf());
            }
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        if !st.dirs.contains(dir) {
            return Err(io::ErrorKind::NotFound.into());
        }
        let MemState {
            entries,
            durable_entries,
            dirs,
            durable_dirs,
            ..
        } = &mut *st;
        let in_dir = |path: &PathBuf| path.parent() == Some(dir);
        durable_entries.retain(|path, _| !in_dir(path));
        durable_entries.extend(
            entries
                .iter()
                .filter(|(p, _)| in_dir(p))
                .map(|(p, &id)| (p.clone(), id)),
        );
        durable_dirs.extend(dirs.iter().filter(|d| in_dir(d)).cloned());
        Ok(())
    }
}

/// A handle on one [`MemFs`] file.
#[derive(Debug)]
struct MemFile {
    state: Arc<Mutex<MemState>>,
    epoch: u64,
    inode: u64,
}

impl MemFile {
    fn with<T>(&self, op: impl FnOnce(&mut Inode) -> T) -> io::Result<T> {
        let mut st = self.state.lock();
        if st.epoch != self.epoch {
            return Err(io::Error::other("the disk crashed under this handle"));
        }
        Ok(op(st
            .inodes
            .get_mut(&self.inode)
            .expect("open files stay live")))
    }
}

impl FsFile for MemFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.with(|inode| inode.written.extend_from_slice(bytes))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(io::Error::other)?;
        self.with(|inode| {
            inode.written.resize(len, 0);
            inode.synced_upto = inode.synced_upto.min(len);
        })
    }

    fn sync(&self) -> io::Result<()> {
        self.with(|inode| {
            inode.durable.truncate(inode.synced_upto);
            inode
                .durable
                .extend_from_slice(&inode.written[inode.synced_upto..]);
            inode.synced_upto = inode.written.len();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(path: &str) -> &Path {
        Path::new(path)
    }

    /// A disk with directory `d` and the file `d/f` holding `bytes`,
    /// synced and with its entry synced.
    fn disk_with_synced_file(bytes: &[u8]) -> MemFs {
        let disk = MemFs::new();
        disk.create_dir_all(p("d")).unwrap();
        let file = disk.create(p("d/f")).unwrap();
        file.append(bytes).unwrap();
        file.sync().unwrap();
        disk.sync_dir(p("d")).unwrap();
        disk
    }

    #[test]
    fn unsynced_write_is_lost_by_crash() {
        let disk = disk_with_synced_file(b"synced");
        let file = disk.open_append(p("d/f")).unwrap();
        file.append(b" unsynced").unwrap();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"synced unsynced");
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"synced");
        assert!(file.append(b"x").is_err(), "a handle dies with the crash");
    }

    #[test]
    fn created_file_without_directory_sync_is_lost() {
        let disk = MemFs::new();
        disk.create_dir_all(p("d")).unwrap();
        let file = disk.create(p("d/f")).unwrap();
        file.append(b"data").unwrap();
        file.sync().unwrap();
        disk.crash();
        assert!(disk.read(p("d/f")).is_err());
        assert!(disk.list(p("d")).unwrap().is_empty());
    }

    #[test]
    fn rename_without_directory_sync_is_undone() {
        let disk = disk_with_synced_file(b"old");
        let tmp = disk.create(p("d/f.tmp")).unwrap();
        tmp.append(b"new").unwrap();
        tmp.sync().unwrap();
        disk.rename(p("d/f.tmp"), p("d/f")).unwrap();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"new");
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"old");
        assert!(
            disk.read(p("d/f.tmp")).is_err(),
            "the tmp entry was never synced"
        );
    }

    #[test]
    fn removal_without_directory_sync_is_undone() {
        let disk = disk_with_synced_file(b"kept");
        disk.remove_file(p("d/f")).unwrap();
        assert!(disk.read(p("d/f")).is_err());
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"kept");
    }

    #[test]
    fn synced_file_survives_crash() {
        let disk = disk_with_synced_file(b"durable");
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"durable");
        assert_eq!(disk.list(p("d")).unwrap(), ["f"]);
        // a second crash changes nothing that was durable
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"durable");
    }

    #[test]
    fn sync_after_truncate_makes_the_cut_durable() {
        let disk = disk_with_synced_file(b"abcdef");
        let file = disk.open_append(p("d/f")).unwrap();
        file.set_len(3).unwrap();
        file.append(b"XY").unwrap();
        file.sync().unwrap();
        file.append(b"lost").unwrap();
        disk.crash();
        assert_eq!(disk.read(p("d/f")).unwrap(), b"abcXY");
    }

    #[test]
    fn created_directory_without_parent_sync_is_lost() {
        let disk = MemFs::new();
        disk.create_dir_all(p("d/sub")).unwrap();
        let file = disk.create(p("d/sub/f")).unwrap();
        file.append(b"data").unwrap();
        file.sync().unwrap();
        disk.sync_dir(p("d/sub")).unwrap();
        disk.crash();
        assert!(disk.list(p("d/sub")).is_err(), "d was never synced");
        assert!(disk.read(p("d/sub/f")).is_err(), "its entries go with it");
        assert!(disk.list(p("d")).unwrap().is_empty(), "a root stays");

        disk.create_dir_all(p("d/sub")).unwrap();
        disk.sync_dir(p("d")).unwrap();
        disk.crash();
        assert!(disk.list(p("d/sub")).unwrap().is_empty());
    }

    #[test]
    fn missing_paths_are_not_found() {
        let disk = MemFs::new();
        let kind = |r: io::Result<Vec<u8>>| r.unwrap_err().kind();
        assert_eq!(kind(disk.read(p("nope"))), io::ErrorKind::NotFound);
        assert!(disk.create(p("no-dir/f")).is_err());
        assert!(disk.list(p("no-dir")).is_err());
        assert!(disk.open_append(p("no-dir/f")).is_err());
    }
}
