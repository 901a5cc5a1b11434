//! The seam layer: the named funnel for foreign-filesystem effects.
//!
//! Machines interact through a small set of explicit seams — the NFS
//! calls, `rsh` sessions, migration dumps and terminal plumbing that
//! the coupling inventory (`simlint.coupling.json`) catalogues. The
//! foreign-filesystem mutations among them are first-class here:
//! [`CrossCall`] names one, and [`World::cross_call`] performs it.
//! Outside `src/world/`, a foreign machine's `&mut` state is taken
//! only through `cross_call`, which simlint's `cross-shard` rule
//! enforces, so every cross-machine write a handler makes is listed in
//! one enum and performed in one function.

use sysdefs::{Credentials, FileMode, SysResult};
use vfs::Ino;

use crate::machine::MachineId;
use crate::world::World;

/// A foreign-filesystem mutation, routed through [`World::cross_call`]
/// instead of a direct `&mut machines[server]` reach from a syscall
/// handler. The variants mirror exactly the server-side mutations the
/// coupling inventory found in `fsops`: create, truncate, write,
/// unlink, link, symlink, mkdir.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrossCall {
    /// `create_file` in a server directory.
    FsCreate {
        /// Parent directory on the server.
        parent: Ino,
        /// New name.
        name: String,
        /// Permission bits.
        mode: FileMode,
    },
    /// Truncate a server file (`O_TRUNC`, NFS `Setattr`).
    FsTruncate {
        /// The file.
        ino: Ino,
    },
    /// Write bytes into a server file (NFS `Write`).
    FsWrite {
        /// The file.
        ino: Ino,
        /// Byte offset.
        off: u64,
        /// Payload.
        bytes: Vec<u8>,
    },
    /// Remove a name from a server directory (NFS `Remove`).
    FsUnlink {
        /// Parent directory.
        parent: Ino,
        /// Name to remove.
        name: String,
    },
    /// Hard-link a server inode under a new name.
    FsLink {
        /// Parent directory.
        parent: Ino,
        /// New name.
        name: String,
        /// Target inode.
        target: Ino,
    },
    /// Create a symlink in a server directory.
    FsSymlink {
        /// Parent directory.
        parent: Ino,
        /// Link name.
        name: String,
        /// Link contents.
        target: String,
    },
    /// Create a directory on the server (NFS `Create`).
    FsMkdir {
        /// Parent directory.
        parent: Ino,
        /// New directory name.
        name: String,
        /// Permission bits.
        mode: FileMode,
    },
}

/// What a [`CrossCall`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossRet {
    /// A created inode.
    Ino(Ino),
    /// A byte count.
    Len(usize),
    /// Nothing beyond success.
    Unit,
}

impl World {
    /// Executes one filesystem mutation on `server` on behalf of a
    /// system-call handler — the single place a handler's effect is
    /// allowed to touch another machine's mutable state. A handler whose
    /// path resolved locally passes its own machine and goes through the
    /// same funnel. Charging stays with the caller: the handler prices
    /// the RPC.
    pub fn cross_call(
        &mut self,
        server: MachineId,
        cred: &Credentials,
        call: CrossCall,
    ) -> SysResult<CrossRet> {
        let fs = self.fs_mut(server);
        match call {
            CrossCall::FsCreate { parent, name, mode } => {
                let ino = fs.create_file(parent, &name, mode, cred)?;
                self.machine_mut(server).note_dump_create(parent, &name);
                Ok(CrossRet::Ino(ino))
            }
            CrossCall::FsTruncate { ino } => {
                fs.truncate(ino)?;
                Ok(CrossRet::Unit)
            }
            CrossCall::FsWrite { ino, off, bytes } => {
                Ok(CrossRet::Len(fs.write(ino, off, &bytes)?))
            }
            CrossCall::FsUnlink { parent, name } => {
                fs.unlink(parent, &name, cred)?;
                self.machine_mut(server).note_dump_unlink(parent, &name);
                Ok(CrossRet::Unit)
            }
            CrossCall::FsLink {
                parent,
                name,
                target,
            } => {
                fs.link(parent, &name, target, cred)?;
                Ok(CrossRet::Unit)
            }
            CrossCall::FsSymlink {
                parent,
                name,
                target,
            } => {
                fs.symlink(parent, &name, &target, cred)?;
                Ok(CrossRet::Unit)
            }
            CrossCall::FsMkdir { parent, name, mode } => {
                fs.mkdir(parent, &name, mode, cred)?;
                Ok(CrossRet::Unit)
            }
        }
    }
}
