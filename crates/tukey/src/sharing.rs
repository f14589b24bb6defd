//! File sharing and permissions (§6.2).
//!
//! "We have developed a functional prototype for distributed file
//! sharing, with access control based on users, groups, and
//! file-collection objects. Users have the ability to create and modify
//! groups. A file-collection object can be a file, a collection of
//! files, or a collection of collections. This hierarchical structure
//! provides a foundation for users to manage projects and associated
//! datasets. In the prototype implementation, users share files by
//! adding them to a designated directory. This directory is monitored by
//! a daemon process that propagates file information to a database.
//! Users then utilize the OSDC web interface to grant permissions to
//! users or groups on file-collection objects. The system serves the
//! files using the WebDAV protocol while referencing the database
//! backend."
//!
//! Reproduced one-to-one: [`FileSharingService::watch_directory`] is the
//! daemon pass (it diffs a designated share directory against the
//! database and registers new files); grants attach to users or groups
//! on any node of the collection tree; permission resolution walks up
//! the hierarchy; [`FileSharingService::webdav_get`] and
//! [`FileSharingService::webdav_propfind`] serve `GET` and `PROPFIND`
//! against the database plus backing volume.

use std::collections::{BTreeMap, BTreeSet};

use osdc_storage::{FileData, Volume};

/// A node in the file-collection hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CollectionId(pub u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permission {
    Read,
    Write,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShareError {
    UnknownCollection(CollectionId),
    UnknownGroup(String),
    /// Only a group's owner may modify it.
    NotGroupOwner,
    PermissionDenied,
    NotAFile(CollectionId),
    StorageError(String),
    /// Cycles are forbidden: a collection cannot contain an ancestor.
    WouldCreateCycle,
}

#[derive(Clone, Debug)]
enum NodeKind {
    /// A single file, backed by a volume path.
    File { volume_path: String },
    /// A collection of files and/or collections.
    Collection { children: Vec<CollectionId> },
}

#[derive(Clone, Debug)]
struct Node {
    #[allow(dead_code)]
    name: String,
    owner: String,
    kind: NodeKind,
    parent: Option<CollectionId>,
    user_grants: Vec<(String, Permission)>,
    group_grants: Vec<(String, Permission)>,
}

/// The sharing database plus its grant logic.
pub struct FileSharingService {
    nodes: BTreeMap<CollectionId, Node>,
    groups: BTreeMap<String, (String, BTreeSet<String>)>, // name → (owner, members)
    next_id: u64,
    /// volume path → file node (for the watcher diff).
    by_path: BTreeMap<String, CollectionId>,
}

impl Default for FileSharingService {
    fn default() -> Self {
        Self::new()
    }
}

impl FileSharingService {
    pub fn new() -> Self {
        FileSharingService {
            nodes: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 1,
            by_path: BTreeMap::new(),
        }
    }

    fn alloc(&mut self) -> CollectionId {
        let id = CollectionId(self.next_id);
        self.next_id += 1;
        id
    }

    // ---- groups ----------------------------------------------------------

    /// "Users have the ability to create and modify groups."
    pub fn create_group(&mut self, owner: &str, name: &str) {
        self.groups
            .entry(name.to_string())
            .or_insert_with(|| (owner.to_string(), BTreeSet::new()));
    }

    pub fn add_member(&mut self, actor: &str, group: &str, user: &str) -> Result<(), ShareError> {
        let (owner, members) = self
            .groups
            .get_mut(group)
            .ok_or_else(|| ShareError::UnknownGroup(group.to_string()))?;
        if owner != actor {
            return Err(ShareError::NotGroupOwner);
        }
        members.insert(user.to_string());
        Ok(())
    }

    pub fn remove_member(
        &mut self,
        actor: &str,
        group: &str,
        user: &str,
    ) -> Result<(), ShareError> {
        let (owner, members) = self
            .groups
            .get_mut(group)
            .ok_or_else(|| ShareError::UnknownGroup(group.to_string()))?;
        if owner != actor {
            return Err(ShareError::NotGroupOwner);
        }
        members.remove(user);
        Ok(())
    }

    fn in_group(&self, group: &str, user: &str) -> bool {
        self.groups
            .get(group)
            .is_some_and(|(_, members)| members.contains(user))
    }

    // ---- collection tree --------------------------------------------------

    pub fn create_collection(
        &mut self,
        owner: &str,
        name: &str,
        parent: Option<CollectionId>,
    ) -> Result<CollectionId, ShareError> {
        if let Some(p) = parent {
            if !self.nodes.contains_key(&p) {
                return Err(ShareError::UnknownCollection(p));
            }
        }
        let id = self.alloc();
        self.nodes.insert(
            id,
            Node {
                name: name.to_string(),
                owner: owner.to_string(),
                kind: NodeKind::Collection {
                    children: Vec::new(),
                },
                parent,
                user_grants: Vec::new(),
                group_grants: Vec::new(),
            },
        );
        if let Some(Node {
            kind: NodeKind::Collection { children },
            ..
        }) = parent.and_then(|p| self.nodes.get_mut(&p))
        {
            children.push(id);
        }
        Ok(id)
    }

    /// Register a file node backed by `volume_path`.
    pub fn register_file(
        &mut self,
        owner: &str,
        name: &str,
        volume_path: &str,
        parent: Option<CollectionId>,
    ) -> Result<CollectionId, ShareError> {
        if let Some(p) = parent {
            if !self.nodes.contains_key(&p) {
                return Err(ShareError::UnknownCollection(p));
            }
        }
        let id = self.alloc();
        self.nodes.insert(
            id,
            Node {
                name: name.to_string(),
                owner: owner.to_string(),
                kind: NodeKind::File {
                    volume_path: volume_path.to_string(),
                },
                parent,
                user_grants: Vec::new(),
                group_grants: Vec::new(),
            },
        );
        if let Some(Node {
            kind: NodeKind::Collection { children },
            ..
        }) = parent.and_then(|p| self.nodes.get_mut(&p))
        {
            children.push(id);
        }
        self.by_path.insert(volume_path.to_string(), id);
        Ok(id)
    }

    /// Move a collection under a new parent ("a collection of
    /// collections"), refusing cycles.
    pub fn reparent(
        &mut self,
        id: CollectionId,
        new_parent: CollectionId,
    ) -> Result<(), ShareError> {
        if !self.nodes.contains_key(&id) {
            return Err(ShareError::UnknownCollection(id));
        }
        if !self.nodes.contains_key(&new_parent) {
            return Err(ShareError::UnknownCollection(new_parent));
        }
        // Walk up from new_parent: id must not be an ancestor.
        let mut cursor = Some(new_parent);
        while let Some(c) = cursor {
            if c == id {
                return Err(ShareError::WouldCreateCycle);
            }
            cursor = self.nodes[&c].parent;
        }
        // Detach from the old parent.
        if let Some(Node {
            kind: NodeKind::Collection { children },
            ..
        }) = self.nodes[&id]
            .parent
            .and_then(|old| self.nodes.get_mut(&old))
        {
            children.retain(|&c| c != id);
        }
        if let Some(Node {
            kind: NodeKind::Collection { children },
            ..
        }) = self.nodes.get_mut(&new_parent)
        {
            children.push(id);
        }
        if let Some(node) = self.nodes.get_mut(&id) {
            node.parent = Some(new_parent);
        }
        Ok(())
    }

    // ---- grants and resolution ---------------------------------------------

    /// Grant a user access on a node (any node of the tree).
    pub fn grant_user(
        &mut self,
        actor: &str,
        id: CollectionId,
        user: &str,
        perm: Permission,
    ) -> Result<(), ShareError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(ShareError::UnknownCollection(id))?;
        if node.owner != actor {
            return Err(ShareError::PermissionDenied);
        }
        node.user_grants.push((user.to_string(), perm));
        Ok(())
    }

    pub fn grant_group(
        &mut self,
        actor: &str,
        id: CollectionId,
        group: &str,
        perm: Permission,
    ) -> Result<(), ShareError> {
        if !self.groups.contains_key(group) {
            return Err(ShareError::UnknownGroup(group.to_string()));
        }
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(ShareError::UnknownCollection(id))?;
        if node.owner != actor {
            return Err(ShareError::PermissionDenied);
        }
        node.group_grants.push((group.to_string(), perm));
        Ok(())
    }

    fn grants_allow(&self, node: &Node, user: &str, want: Permission) -> bool {
        let covers = |have: Permission| have == Permission::Write || want == Permission::Read;
        node.user_grants
            .iter()
            .any(|(u, p)| u == user && covers(*p))
            || node
                .group_grants
                .iter()
                .any(|(g, p)| self.in_group(g, user) && covers(*p))
    }

    /// Effective permission: owner always; otherwise any grant on the node
    /// or any ancestor collection.
    pub fn can_access(&self, user: &str, id: CollectionId, want: Permission) -> bool {
        let mut cursor = Some(id);
        while let Some(c) = cursor {
            let Some(node) = self.nodes.get(&c) else {
                return false;
            };
            if node.owner == user || self.grants_allow(node, user, want) {
                return true;
            }
            cursor = node.parent;
        }
        false
    }

    // ---- the share-directory watcher daemon --------------------------------

    /// One pass of the daemon that monitors the designated share
    /// directory: any file on the volume under `share_prefix` not yet in
    /// the database is registered (owned by the file's volume owner) under
    /// `parent`. Returns the newly registered ids.
    pub fn watch_directory(
        &mut self,
        volume: &Volume,
        share_prefix: &str,
        parent: CollectionId,
    ) -> Result<Vec<CollectionId>, ShareError> {
        if !self.nodes.contains_key(&parent) {
            return Err(ShareError::UnknownCollection(parent));
        }
        let mut new_ids = Vec::new();
        for path in volume.list() {
            if !path.starts_with(share_prefix) || self.by_path.contains_key(&path) {
                continue;
            }
            let (_, meta) = volume
                .read(&path)
                .map_err(|e| ShareError::StorageError(format!("{e:?}")))?;
            let name = path.rsplit('/').next().unwrap_or(&path).to_string();
            let id = self.register_file(&meta.owner, &name, &path, Some(parent))?;
            new_ids.push(id);
        }
        Ok(new_ids)
    }

    // ---- WebDAV-ish serving --------------------------------------------------

    /// `GET`: fetch a file's bytes if `user` may read it.
    pub fn webdav_get(
        &self,
        volume: &Volume,
        user: &str,
        id: CollectionId,
    ) -> Result<FileData, ShareError> {
        let node = self
            .nodes
            .get(&id)
            .ok_or(ShareError::UnknownCollection(id))?;
        if !self.can_access(user, id, Permission::Read) {
            return Err(ShareError::PermissionDenied);
        }
        match &node.kind {
            NodeKind::File { volume_path } => volume
                .read(volume_path)
                .map(|(d, _)| d)
                .map_err(|e| ShareError::StorageError(format!("{e:?}"))),
            NodeKind::Collection { .. } => Err(ShareError::NotAFile(id)),
        }
    }

    /// `PROPFIND` depth-1: list readable children of a collection.
    pub fn webdav_propfind(
        &self,
        user: &str,
        id: CollectionId,
    ) -> Result<Vec<CollectionId>, ShareError> {
        let node = self
            .nodes
            .get(&id)
            .ok_or(ShareError::UnknownCollection(id))?;
        if !self.can_access(user, id, Permission::Read) {
            return Err(ShareError::PermissionDenied);
        }
        match &node.kind {
            NodeKind::Collection { children } => Ok(children
                .iter()
                .copied()
                .filter(|c| self.can_access(user, *c, Permission::Read))
                .collect()),
            NodeKind::File { .. } => Ok(vec![id]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_storage::GlusterVersion;

    fn volume() -> Volume {
        Volume::new("share", GlusterVersion::V3_3, 2, 2, 1 << 30, 1)
    }

    fn svc_with_project() -> (FileSharingService, CollectionId) {
        let mut s = FileSharingService::new();
        let project = s
            .create_collection("alice", "t2d-genes", None)
            .expect("create");
        (s, project)
    }

    #[test]
    fn hierarchy_file_collection_of_collections() {
        let (mut s, project) = svc_with_project();
        let runs = s
            .create_collection("alice", "runs", Some(project))
            .expect("create");
        let f = s
            .register_file("alice", "run1.vcf", "/share/run1.vcf", Some(runs))
            .expect("register");
        // PROPFIND from the top as the owner sees the nested structure.
        assert_eq!(s.webdav_propfind("alice", project).expect("ok"), vec![runs]);
        assert_eq!(s.webdav_propfind("alice", runs).expect("ok"), vec![f]);
    }

    #[test]
    fn grant_on_ancestor_covers_descendants() {
        let (mut s, project) = svc_with_project();
        let runs = s
            .create_collection("alice", "runs", Some(project))
            .expect("create");
        let f = s
            .register_file("alice", "r.vcf", "/share/r.vcf", Some(runs))
            .expect("register");
        assert!(!s.can_access("bob", f, Permission::Read));
        s.grant_user("alice", project, "bob", Permission::Read)
            .expect("grant");
        assert!(
            s.can_access("bob", f, Permission::Read),
            "inherited via hierarchy"
        );
        assert!(
            !s.can_access("bob", f, Permission::Write),
            "read grant only"
        );
    }

    #[test]
    fn group_grants_follow_membership() {
        let (mut s, project) = svc_with_project();
        s.create_group("alice", "t2d-consortium");
        s.add_member("alice", "t2d-consortium", "carol")
            .expect("add");
        s.grant_group("alice", project, "t2d-consortium", Permission::Write)
            .expect("grant");
        assert!(s.can_access("carol", project, Permission::Write));
        assert!(!s.can_access("dave", project, Permission::Read));
        // Membership changes take effect immediately.
        s.remove_member("alice", "t2d-consortium", "carol")
            .expect("remove");
        assert!(!s.can_access("carol", project, Permission::Read));
    }

    #[test]
    fn only_group_owner_modifies_membership() {
        let (mut s, _) = svc_with_project();
        s.create_group("alice", "g");
        assert_eq!(
            s.add_member("mallory", "g", "mallory").unwrap_err(),
            ShareError::NotGroupOwner
        );
        assert!(matches!(
            s.add_member("alice", "nope", "x").unwrap_err(),
            ShareError::UnknownGroup(_)
        ));
    }

    #[test]
    fn only_node_owner_grants() {
        let (mut s, project) = svc_with_project();
        assert_eq!(
            s.grant_user("mallory", project, "mallory", Permission::Write)
                .unwrap_err(),
            ShareError::PermissionDenied
        );
    }

    #[test]
    fn write_grant_implies_read() {
        let (mut s, project) = svc_with_project();
        s.grant_user("alice", project, "bob", Permission::Write)
            .expect("grant");
        assert!(s.can_access("bob", project, Permission::Read));
        assert!(s.can_access("bob", project, Permission::Write));
    }

    #[test]
    fn watcher_daemon_registers_new_share_files() {
        let (mut s, project) = svc_with_project();
        let mut vol = volume();
        vol.write(
            "/share/alice/genome.fa",
            FileData::bytes(b"ACGT".to_vec()),
            "alice",
        )
        .expect("write");
        vol.write(
            "/private/not-shared",
            FileData::bytes(b"x".to_vec()),
            "alice",
        )
        .expect("write");
        let new = s
            .watch_directory(&vol, "/share/", project)
            .expect("watch pass");
        assert_eq!(new.len(), 1);
        // A second pass is idempotent.
        assert!(s
            .watch_directory(&vol, "/share/", project)
            .expect("pass")
            .is_empty());
        // The registered file serves over WebDAV to the owner.
        let data = s.webdav_get(&vol, "alice", new[0]).expect("get");
        assert_eq!(data, FileData::bytes(b"ACGT".to_vec()));
    }

    #[test]
    fn webdav_enforces_permissions_and_types() {
        let (mut s, project) = svc_with_project();
        let mut vol = volume();
        vol.write("/share/f", FileData::bytes(b"data".to_vec()), "alice")
            .expect("write");
        let f = s
            .register_file("alice", "f", "/share/f", Some(project))
            .expect("register");
        assert_eq!(
            s.webdav_get(&vol, "bob", f).unwrap_err(),
            ShareError::PermissionDenied
        );
        assert_eq!(
            s.webdav_get(&vol, "alice", project).unwrap_err(),
            ShareError::NotAFile(project)
        );
        s.grant_user("alice", f, "bob", Permission::Read)
            .expect("grant");
        assert!(s.webdav_get(&vol, "bob", f).is_ok());
    }

    #[test]
    fn propfind_filters_unreadable_children() {
        let (mut s, project) = svc_with_project();
        let open = s
            .create_collection("alice", "open", Some(project))
            .expect("create");
        let closed = s
            .create_collection("alice", "closed", Some(project))
            .expect("create");
        // Bob may read 'open' only.
        s.grant_user("alice", open, "bob", Permission::Read)
            .expect("grant");
        // Bob cannot PROPFIND the project itself (no grant there)...
        assert_eq!(
            s.webdav_propfind("bob", project).unwrap_err(),
            ShareError::PermissionDenied
        );
        // ...but alice sees both, and if alice grants project-read, bob
        // sees both too (ancestor grant covers 'closed').
        assert_eq!(s.webdav_propfind("alice", project).expect("ok").len(), 2);
        s.grant_user("alice", project, "bob", Permission::Read)
            .expect("grant");
        assert_eq!(s.webdav_propfind("bob", project).expect("ok").len(), 2);
        let _ = closed;
    }

    #[test]
    fn reparent_refuses_cycles() {
        let (mut s, a) = svc_with_project();
        let b = s.create_collection("alice", "b", Some(a)).expect("create");
        let c = s.create_collection("alice", "c", Some(b)).expect("create");
        assert_eq!(s.reparent(a, c).unwrap_err(), ShareError::WouldCreateCycle);
        assert_eq!(s.reparent(a, a).unwrap_err(), ShareError::WouldCreateCycle);
        // Legal move: c up under a.
        s.reparent(c, a).expect("ok");
        assert_eq!(s.webdav_propfind("alice", a).expect("ok").len(), 2);
        assert!(s.webdav_propfind("alice", b).expect("ok").is_empty());
    }

    #[test]
    fn unknown_nodes_error() {
        let (mut s, _) = svc_with_project();
        let ghost = CollectionId(999);
        assert!(matches!(
            s.grant_user("alice", ghost, "b", Permission::Read)
                .unwrap_err(),
            ShareError::UnknownCollection(_)
        ));
        assert!(matches!(
            s.create_collection("alice", "x", Some(ghost)).unwrap_err(),
            ShareError::UnknownCollection(_)
        ));
        assert!(!s.can_access("alice", ghost, Permission::Read));
    }
}
