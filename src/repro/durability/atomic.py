"""Atomic, checksummed JSON files: the one way anything here touches disk.

Three guarantees, shared by every persister in the stack (completion
cache, session store, journal segments, suite files):

1. **Atomic replace** — content is written to a temp file in the *same*
   directory, flushed and ``fsync``'d, then ``os.replace``'d over the
   target, and the directory entry is fsync'd too. A crash at any point
   leaves either the old file or the new file, never a torn mix.
2. **Checksum** — documents carry a SHA-256 over the canonical JSON of
   their payload. A reader that finds a mismatch knows the file is
   corrupt (bit rot, partial copy, manual edit) rather than trusting it.
3. **Quarantine** — corrupt files are renamed to ``<name>.corrupt`` (or
   ``.corrupt-N``) and the reader reports "absent". The data they held is
   re-derived by the caller; a bad file can never crash a loader or be
   half-loaded, and the evidence is kept on disk for inspection.

:func:`canonical_json` / :func:`canonical_key` are the same construction
:func:`repro.llm.dispatch.canonical_prompt_key` uses (sorted keys, compact
separators, SHA-256), so journal keys and cache keys hash identically for
identical material.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.chaos.diskfaults import disk_fault

#: Checksum algorithm recorded in every checksummed document.
CHECKSUM_ALGORITHM = "sha256"


def canonical_json(payload: object) -> str:
    """The canonical JSON text for a payload (sorted keys, stable bytes)."""
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        default=str,
    )


def canonical_key(payload: object) -> str:
    """A deterministic hex digest over a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. directories are not openable on this platform
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, Path], text: str, fsync: bool = True
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target's directory so the replace is a
    same-filesystem rename. With ``fsync`` (the default) the content hits
    the platters before the rename, and the directory entry after it —
    a crash leaves either the complete old file or the complete new one.
    """
    path = Path(path)
    tmp_path = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        disk_fault("disk.atomic_write", tmp_path=tmp_path, target=path)
        try:
            handle = open(tmp_path, "w", encoding="utf-8")
        except FileNotFoundError:
            # First write into a new directory: create it, then retry.
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(tmp_path, "w", encoding="utf-8")
        with handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        disk_fault("disk.replace", tmp_path=tmp_path, target=path)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(path.parent)
    return path


def write_checksummed_json(
    path: Union[str, Path], payload: object, fsync: bool = True
) -> Path:
    """Atomically persist ``payload`` wrapped in a checksummed envelope.

    The document is itself canonical JSON, so two processes persisting
    equal payloads write byte-identical files.
    """
    body = canonical_json(payload)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    # canonical_json of the envelope without serialising payload twice.
    document = (
        f'{{"algorithm":{json.dumps(CHECKSUM_ALGORITHM)},'
        f'"checksum":{json.dumps(checksum)},"payload":{body}}}'
    )
    return atomic_write_text(path, document + "\n", fsync=fsync)


def quarantine_file(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt file aside as ``<name>.corrupt[-N]``; None on failure.

    Quarantined files no longer match ``*.json`` globs, so loaders stop
    seeing them, but the bytes stay on disk for post-mortems.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}.corrupt-{suffix}")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def read_checksummed_json(
    path: Union[str, Path], quarantine: bool = True, kind: str = "file"
) -> Optional[object]:
    """Load a checksummed document's payload; None when absent or corrupt.

    Corruption — unreadable bytes, non-JSON, a missing envelope, or a
    checksum mismatch — quarantines the file (when ``quarantine``) and
    counts ``durability.quarantined`` labelled by ``kind``. The caller
    re-derives the data; a torn file never crashes the loader.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError:
        return None
    try:
        document = json.loads(text)
    except ValueError:
        document = None
    if (
        isinstance(document, dict)
        and "payload" in document
        and isinstance(document.get("checksum"), str)
        and document.get("checksum") == canonical_key(document["payload"])
    ):
        return document["payload"]
    obs.count("durability.quarantined", kind=kind)
    if quarantine:
        quarantine_file(path)
    return None
