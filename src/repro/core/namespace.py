"""Hierarchical namespace with per-folder retention metadata.

The namespace is deliberately simple: folders and files, with application
folders carrying retention-policy metadata (section IV.D).  Paths use ``/``
separators and are rooted at ``/`` (the mount point ``/stdchk`` of the paper
maps to this root).
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.exceptions import (
    FileExistsInStdchkError,
    FileNotFoundInStdchkError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.util.config import RetentionConfig


def normalize_path(path: str) -> str:
    """Normalize a namespace path to an absolute, ``/``-rooted form."""
    if not path:
        raise FileNotFoundInStdchkError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    normalized = posixpath.normpath(path)
    return normalized


def split_path(path: str) -> tuple:
    """Split into (parent directory, basename)."""
    normalized = normalize_path(path)
    parent, name = posixpath.split(normalized)
    return parent, name


@dataclass
class FileEntry:
    """A file node: maps a path to a dataset id."""

    name: str
    dataset_id: str
    created_at: float = 0.0


@dataclass
class FolderEntry:
    """A directory node, possibly carrying a retention policy."""

    name: str
    retention: Optional[RetentionConfig] = None
    created_at: float = 0.0
    folders: Dict[str, "FolderEntry"] = field(default_factory=dict)
    files: Dict[str, FileEntry] = field(default_factory=dict)

    def child_folder(self, name: str) -> Optional["FolderEntry"]:
        return self.folders.get(name)

    def child_file(self, name: str) -> Optional[FileEntry]:
        return self.files.get(name)

    @property
    def is_empty(self) -> bool:
        return not self.folders and not self.files


class Namespace:
    """The directory tree the metadata manager exposes to clients."""

    def __init__(self) -> None:
        self._root = FolderEntry(name="/")

    # -- internal traversal --------------------------------------------------
    def _walk(self, path: str) -> FolderEntry:
        """Return the folder at ``path``; raise when missing or a file."""
        normalized = normalize_path(path)
        if normalized == "/":
            return self._root
        node = self._root
        for part in normalized.strip("/").split("/"):
            if part in node.files:
                raise NotADirectoryError_(f"{part} in {path} is a file")
            child = node.child_folder(part)
            if child is None:
                raise FileNotFoundInStdchkError(f"no such directory: {path}")
            node = child
        return node

    def _walk_parent(self, path: str) -> tuple:
        parent_path, name = split_path(path)
        if not name:
            raise FileNotFoundInStdchkError(f"invalid path: {path}")
        return self._walk(parent_path), name

    # -- folders ---------------------------------------------------------------
    def make_folder(self, path: str, retention: Optional[RetentionConfig] = None,
                    created_at: float = 0.0, exist_ok: bool = False) -> FolderEntry:
        """Create a folder (one level; parents must exist)."""
        parent, name = self._walk_parent(path)
        if name in parent.files:
            raise FileExistsInStdchkError(f"{path} exists and is a file")
        existing = parent.child_folder(name)
        if existing is not None:
            if exist_ok:
                if retention is not None:
                    existing.retention = retention
                return existing
            raise FileExistsInStdchkError(f"folder already exists: {path}")
        folder = FolderEntry(name=name, retention=retention, created_at=created_at)
        parent.folders[name] = folder
        return folder

    def ensure_folder(self, path: str, created_at: float = 0.0) -> FolderEntry:
        """Create every missing component of ``path`` (mkdir -p)."""
        normalized = normalize_path(path)
        if normalized == "/":
            return self._root
        node = self._root
        for part in normalized.strip("/").split("/"):
            if part in node.files:
                raise NotADirectoryError_(f"{part} in {path} is a file")
            child = node.child_folder(part)
            if child is None:
                child = FolderEntry(name=part, created_at=created_at)
                node.folders[part] = child
            node = child
        return node

    def get_folder(self, path: str) -> FolderEntry:
        return self._walk(path)

    def folder_exists(self, path: str) -> bool:
        try:
            self._walk(path)
            return True
        except (FileNotFoundInStdchkError, NotADirectoryError_):
            return False

    def check_removable(self, path: str, force: bool = False) -> tuple:
        """Raise unless :meth:`remove_folder` would succeed; changes nothing.

        Returns ``(parent folder, name)``.
        """
        normalized = normalize_path(path)
        if normalized == "/":
            raise IsADirectoryError_("cannot remove the namespace root")
        parent, name = self._walk_parent(path)
        folder = parent.child_folder(name)
        if folder is None:
            raise FileNotFoundInStdchkError(f"no such directory: {path}")
        if not folder.is_empty and not force:
            raise FileExistsInStdchkError(f"directory not empty: {path}")
        return parent, name

    def remove_folder(self, path: str, force: bool = False) -> None:
        """Remove a folder.  Non-empty folders require ``force``."""
        parent, name = self.check_removable(path, force)
        del parent.folders[name]

    def set_retention(self, path: str, retention: RetentionConfig) -> None:
        """Attach a retention policy to an existing folder."""
        self._walk(path).retention = retention

    def get_retention(self, path: str) -> Optional[RetentionConfig]:
        """Effective retention policy for ``path`` (nearest ancestor wins)."""
        normalized = normalize_path(path)
        node = self._root
        effective = node.retention
        if normalized != "/":
            for part in normalized.strip("/").split("/"):
                child = node.child_folder(part)
                if child is None:
                    break
                node = child
                if node.retention is not None:
                    effective = node.retention
        return effective

    # -- files -------------------------------------------------------------------
    def add_file(self, path: str, dataset_id: str, created_at: float = 0.0,
                 overwrite: bool = False) -> FileEntry:
        parent, name = self._walk_parent(path)
        if name in parent.folders:
            raise IsADirectoryError_(f"{path} exists and is a directory")
        if name in parent.files and not overwrite:
            raise FileExistsInStdchkError(f"file already exists: {path}")
        entry = FileEntry(name=name, dataset_id=dataset_id, created_at=created_at)
        parent.files[name] = entry
        return entry

    def get_file(self, path: str) -> FileEntry:
        parent, name = self._walk_parent(path)
        entry = parent.child_file(name)
        if entry is None:
            raise FileNotFoundInStdchkError(f"no such file: {path}")
        return entry

    def file_exists(self, path: str) -> bool:
        try:
            self.get_file(path)
            return True
        except (FileNotFoundInStdchkError, NotADirectoryError_):
            return False

    def exists(self, path: str) -> bool:
        return self.file_exists(path) or self.folder_exists(path)

    def remove_file(self, path: str) -> FileEntry:
        parent, name = self._walk_parent(path)
        entry = parent.child_file(name)
        if entry is None:
            raise FileNotFoundInStdchkError(f"no such file: {path}")
        del parent.files[name]
        return entry

    def rename_file(self, source: str, destination: str) -> None:
        """Move a file entry to a new path (both parents must exist)."""
        entry = self.get_file(source)
        self.remove_file(source)
        try:
            self.add_file(destination, entry.dataset_id, created_at=entry.created_at,
                          overwrite=True)
        except Exception:
            # Restore the original entry if the destination is invalid.
            parent, name = self._walk_parent(source)
            parent.files[name] = entry
            raise

    # -- listing ------------------------------------------------------------------
    def list_dir(self, path: str) -> List[str]:
        """Names (not paths) of entries directly under ``path``."""
        folder = self._walk(path)
        return sorted(list(folder.folders) + list(folder.files))

    def iter_files(self, path: str = "/") -> Iterator[tuple]:
        """Yield ``(full_path, FileEntry)`` for every file under ``path``."""
        root_path = normalize_path(path)
        folder = self._walk(root_path)
        stack = [(root_path, folder)]
        while stack:
            current_path, node = stack.pop()
            for name, entry in sorted(node.files.items()):
                yield posixpath.join(current_path, name), entry
            for name, child in sorted(node.folders.items()):
                stack.append((posixpath.join(current_path, name), child))

    def iter_folders(self, path: str = "/") -> Iterator[tuple]:
        """Yield ``(full_path, FolderEntry)`` for every folder under ``path``."""
        root_path = normalize_path(path)
        folder = self._walk(root_path)
        stack = [(root_path, folder)]
        while stack:
            current_path, node = stack.pop()
            yield current_path, node
            for name, child in sorted(node.folders.items()):
                stack.append((posixpath.join(current_path, name), child))

    def file_count(self) -> int:
        return sum(1 for _ in self.iter_files("/"))
