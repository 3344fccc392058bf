"""Checkpoint/resume for the exhaustive space enumeration.

A checkpoint is a single JSON document capturing everything the
enumerator needs to continue a run bit-identically: the space DAG, the
current frontier (with its in-memory function instances serialized as
printed RTL), the replay recipes, the budget counters, and the
quarantine log.  Checkpoints are written atomically (temp file +
``os.replace``) at function-instance boundaries, so a file on disk is
always internally consistent no matter when the process died.

File layout (all keys always present)::

    {
      "version":        2,
      "digest":         "sha256...",   // integrity hash of the payload
      "function_name":  "...",
      "config":         {"phases": "bcdg...", "remap": true, "exact": false},
      "completed":      false,
      "level":          3,              // current (0-based) level
      "frontier":       [12, 17, ...], // node ids awaiting expansion
      "frontier_index": 2,             // next frontier slot to expand
      "next_frontier":  [31, ...],     // children found so far this level
      "attempted":      1234,          // Table 3 "Attempt" so far
      "applied":        1400,          // phase executions so far
      "elapsed":        12.5,          // seconds consumed so far
      "dag":            {"root_id": 0, "nodes": [...]},
      "root_function":  {...},         // serialized Function
      "functions":      {"17": {...}}, // frontier instances (RTL text)
      "recipes":        {"17": "scb"}, // root phase paths (replay mode)
      "texts":          [[key, text]], // exact-mode collision texts
      "quarantine":     [...]          // QuarantineRecord dicts
    }

Node entries hold ``key`` (the fingerprint triple plus the legality
flags), ``level``, ``num_insts``, ``cf_crc``, ``active`` (phase → child
id), ``dormant``, ``expanded``, and ``parents``.

Serialized functions round-trip through the RTL printer/parser
(:func:`repro.ir.printer.format_function` /
:func:`repro.ir.parser.parse_function`) plus the metadata the printed
form does not carry: frame slots, legality flags, and counters.  The
fingerprint hashes only the printed form, so a round-tripped function
fingerprints identically — which is what makes resumed enumerations
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

from repro.core.dag import SpaceDAG, SpaceNode
from repro.ir.function import Function, LocalSlot
from repro.ir.parser import RTLParseError, parse_function
from repro.ir.printer import format_function

#: version 2 added the payload digest
CHECKPOINT_VERSION = 2

#: the diagnostic code every checkpoint/store load failure carries, so
#: operators (and the service's error responses) can grep one token
#: across logs, journals, and exception text
DIAGNOSTIC = "CKP001"

#: keys an enumeration checkpoint must contain (see the layout above);
#: ``version`` and ``digest`` are checked separately by the loader
ENUMERATION_KEYS = (
    "function_name",
    "config",
    "completed",
    "level",
    "frontier",
    "frontier_index",
    "next_frontier",
    "attempted",
    "applied",
    "elapsed",
    "dag",
    "root_function",
    "functions",
    "recipes",
    "texts",
    "quarantine",
)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or incompatible.

    Every instance carries the ``CKP001`` diagnostic in its message
    (and as ``.code``): persisted-state corruption is one failure
    class no matter which loader tripped over it.
    """

    code = DIAGNOSTIC

    def __init__(self, message: str):
        if not message.startswith(DIAGNOSTIC):
            message = f"{DIAGNOSTIC}: {message}"
        super().__init__(message)


# ----------------------------------------------------------------------
# Function (de)serialization
# ----------------------------------------------------------------------


def function_to_dict(func: Function) -> Dict[str, object]:
    """Serialize *func* as printed RTL plus its metadata."""
    return {
        "name": func.name,
        "returns_value": func.returns_value,
        "params": list(func.params),
        "rtl": format_function(func),
        "frame": [
            {
                "name": slot.name,
                "offset": slot.offset,
                "words": slot.words,
                "typ": slot.typ,
                "is_array": slot.is_array,
                "is_param": slot.is_param,
            }
            for slot in func.frame.values()
        ],
        "frame_size": func.frame_size,
        "next_pseudo": func.next_pseudo,
        "next_label": func.next_label,
        "reg_assigned": func.reg_assigned,
        "sel_applied": func.sel_applied,
        "alloc_applied": func.alloc_applied,
        "unrolled": sorted(func.unrolled),
        "mem_facts": func.mem_facts,
    }


def function_from_dict(data: Dict[str, object]) -> Function:
    """Rebuild a function serialized by :func:`function_to_dict`.

    Raises :class:`CheckpointError` when the serialized RTL does not
    parse — damaged function text is persisted-state corruption, the
    same failure class as a bad digest.
    """
    try:
        func = parse_function(data["rtl"], data["name"])
    except RTLParseError as error:
        raise CheckpointError(
            f"serialized function {data.get('name')!r} does not parse: "
            f"{error}"
        ) from error
    func.returns_value = data["returns_value"]
    func.params = list(data["params"])
    # Frame slot insertion order is semantic (register allocation walks
    # frame.values()), so rebuild the dict in the serialized order.
    func.frame = {}
    for slot in data["frame"]:
        func.frame[slot["name"]] = LocalSlot(
            slot["name"],
            slot["offset"],
            slot["words"],
            slot["typ"],
            slot["is_array"],
            slot["is_param"],
        )
    func.frame_size = data["frame_size"]
    func.next_pseudo = data["next_pseudo"]
    func.next_label = data["next_label"]
    func.reg_assigned = data["reg_assigned"]
    func.sel_applied = data["sel_applied"]
    func.alloc_applied = data["alloc_applied"]
    func.unrolled = set(data["unrolled"])
    # Older checkpoints predate source-level memory facts.
    func.mem_facts = data.get("mem_facts")
    return func


# ----------------------------------------------------------------------
# Node keys
# ----------------------------------------------------------------------
#
# Node keys are nested tuples of ints and bools; JSON turns tuples into
# lists, so restoring must tuple-ify recursively before dict lookups.


def key_to_json(key):
    if isinstance(key, tuple):
        return [key_to_json(part) for part in key]
    return key


def key_from_json(data):
    if isinstance(data, list):
        return tuple(key_from_json(part) for part in data)
    return data


# ----------------------------------------------------------------------
# DAG (de)serialization
# ----------------------------------------------------------------------


def dag_to_dict(dag: SpaceDAG) -> Dict[str, object]:
    nodes: List[Dict[str, object]] = []
    # Node ids are assigned densely in creation order; serialize in
    # that order so restoration reproduces identical ids.
    for node_id in range(len(dag.nodes)):
        node = dag.nodes[node_id]
        nodes.append(
            {
                "key": key_to_json(node.key),
                "level": node.level,
                "num_insts": node.num_insts,
                "cf_crc": node.cf_crc,
                "active": dict(node.active),
                "dormant": sorted(node.dormant),
                "expanded": node.expanded,
                "parents": [[pid, phase] for (pid, phase) in node.parents],
            }
        )
    data: Dict[str, object] = {"root_id": dag.root_id, "nodes": nodes}
    if dag.aliases:
        # Only written by semantic collapse — syntactic checkpoints
        # stay byte-identical to previous versions.
        data["aliases"] = [
            [key_to_json(key), node_id]
            for key, node_id in dag.aliases.items()
        ]
    return data


def dag_digest(dag: SpaceDAG) -> str:
    """sha256 of the serialized DAG: the bit-identity witness that
    serial, ``--jobs``, service, resumed and store-served spaces are
    compared by."""
    return hashlib.sha256(
        json.dumps(dag_to_dict(dag), sort_keys=True).encode("utf-8")
    ).hexdigest()


def dag_from_dict(function_name: str, data: Dict[str, object]) -> SpaceDAG:
    dag = SpaceDAG(function_name)
    for node_id, entry in enumerate(data["nodes"]):
        node = SpaceNode(
            node_id,
            key_from_json(entry["key"]),
            entry["level"],
            entry["num_insts"],
            entry["cf_crc"],
        )
        node.active = {
            phase: child for phase, child in entry["active"].items()
        }
        node.dormant = set(entry["dormant"])
        node.expanded = entry["expanded"]
        node.parents = [(pid, phase) for pid, phase in entry["parents"]]
        dag.nodes[node_id] = node
        dag.by_key[node.key] = node_id
    for key, node_id in data.get("aliases", []):
        dag.aliases[key_from_json(key)] = node_id
    dag.root_id = data["root_id"]
    return dag


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------


class CheckpointLock:
    """Advisory single-writer lock guarding a checkpoint path.

    Two enumerations resuming from the same checkpoint would silently
    corrupt each other's progress (last atomic write wins); the lock
    turns that into an immediate error.  Implemented as an ``O_EXCL``
    pid file next to the checkpoint: portable, NFS-tolerant enough for
    this use, and inspectable.  A lock whose owning pid no longer
    exists (the process crashed before releasing) is stolen.
    """

    def __init__(self, path: str):
        self.lock_path = path + ".lock"
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "CheckpointLock":
        while self._fd is None:
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                owner = self._owner_pid()
                if owner is not None and self._pid_alive(owner):
                    raise CheckpointError(
                        f"checkpoint is locked by running process {owner} "
                        f"({self.lock_path})"
                    )
                # Crashed owner: steal the stale lock and retry (another
                # stealer may beat us to the unlink; the loop handles it).
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    pass
                continue
            os.write(fd, f"{os.getpid()}\n".encode())
            self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        os.close(self._fd)
        self._fd = None
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self.lock_path) as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def __enter__(self) -> "CheckpointLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _payload_digest(state: Dict[str, object]) -> str:
    """Integrity hash of a checkpoint payload (digest key excluded).

    Canonical JSON (sorted keys) so the digest is independent of dict
    insertion order; sha256 because corruption detection, not crypto,
    is the goal — a truncated write, a flipped bit, or a hand-edited
    file must not resume into a silently wrong enumeration.
    """
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()


def save_checkpoint(path: str, state: Dict[str, object]) -> None:
    """Atomically write *state* as JSON to *path* (version + digest
    stamped)."""
    state = dict(state)
    state["version"] = CHECKPOINT_VERSION
    state["digest"] = _payload_digest(state)
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(state, handle)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_checkpoint(
    path: str, require: Sequence[str] = ()
) -> Dict[str, object]:
    """Read and verify a checkpoint written by :func:`save_checkpoint`.

    Verification order: readable JSON, then version (an incompatible
    layout gets the version message, not a digest complaint), then the
    payload digest, then any *require*\\ d keys.  Every failure raises
    :class:`CheckpointError` with the ``CKP001`` diagnostic.
    """
    try:
        with open(path) as handle:
            state = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}")
    except ValueError as error:
        raise CheckpointError(f"malformed checkpoint {path}: {error}")
    if not isinstance(state, dict):
        raise CheckpointError(
            f"malformed checkpoint {path}: expected a JSON object, "
            f"got {type(state).__name__}"
        )
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    digest = state.pop("digest", None)
    expected = _payload_digest(state)
    if digest != expected:
        raise CheckpointError(
            f"checkpoint {path} failed its integrity check "
            f"(digest {digest!r}, expected {expected!r}) — the file is "
            "corrupt or was modified"
        )
    missing = [key for key in require if key not in state]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing required keys: {missing}"
        )
    return state
