"""Declared-field state persistence for the stateful serving components.

Each component a serving checkpoint carries, and the streaming server's
own sections, declares what it persists once: an ordered tuple of
``(json key, attribute, codec[, reset value])`` entries, in the JSON key
order the checkpoint bytes pin.  :func:`encode` writes them;
:func:`prepare` decodes *every* entry (presence, coercion, window
bounds, child components) before it returns the function that assigns
them, so an unusable state raises ``ValueError`` naming its key and
leaves the instance as it was; :func:`reset` assigns the reset values.

A :class:`Codec` pairs ``encode(value)`` with ``decode(raw, owner)``;
scalar codecs store values as they are and coerce on load, and a decode
may return :data:`KEEP` to check a key without assigning.  Child
components take :data:`CHILD` or :data:`OPTIONAL_CHILD` in place of a
codec.

:func:`write_atomic` is the one way a file of persisted state (a
checkpoint, a predictor manifest, model weights) reaches the disk.
"""

from __future__ import annotations

import os
from collections import deque
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

__all__ = [
    "BOOL", "CHILD", "COUNTS", "Codec", "FLOAT", "INT", "KEEP",
    "OPTIONAL_CHILD", "Persistent", "STR", "encode", "listed", "optional",
    "prepare", "reset", "scalars", "window", "write_atomic",
]


class Codec(NamedTuple):
    """How one attribute is written to JSON and read back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any, Any], Any]


#: A ``decode`` result that checks a key without assigning anything.
KEEP = object()
#: Child component(s) — an object with ``state_dict``, or a list or dict
#: of them.  Always written (``null`` when absent or stateless); a saved
#: state must match the configured presence, length or keys.
CHILD = "child"
#: A child written only when it carries state; a saved one needs a
#: configured child that can load it.
OPTIONAL_CHILD = "optional child"


def _scalar(kind: type) -> Codec:
    return Codec(lambda v: v, lambda raw, owner: kind(raw))


INT, FLOAT, STR, BOOL = map(_scalar, (int, float, str, bool))
_RAW = Codec(lambda v: v, lambda raw, owner: raw)
#: ``{name: count}`` tallies.
COUNTS = Codec(dict, lambda raw, owner: {str(k): int(v) for k, v in raw.items()})


def optional(codec: Codec) -> Codec:
    """``codec``, or ``None``."""
    return Codec(
        lambda v: None if v is None else codec.encode(v),
        lambda raw, owner: None if raw is None else codec.decode(raw, owner),
    )


def listed(item: Codec = _RAW) -> Codec:
    """A list of ``item``s."""
    return Codec(
        lambda v: [item.encode(x) for x in v],
        lambda raw, owner: [item.decode(x, owner) for x in raw],
    )


def window(item: Codec, bound: str, *, maxlen: bool = False) -> Codec:
    """A deque of at most ``owner.<bound>`` items; ``maxlen`` also caps
    the restored deque."""
    items, limit_of = listed(item), attrgetter(bound)

    def decode(raw, owner):
        saved, limit = items.decode(raw, owner), limit_of(owner)
        if len(saved) > limit:
            raise ValueError(f"{len(saved)} saved records exceed {bound} {limit}")
        return deque(saved, maxlen=limit if maxlen else None)

    return Codec(items.encode, decode)


def scalars(**resets) -> tuple:
    """Entries keyed by attribute name, coerced to their reset value's type."""
    return tuple((k, k, _scalar(type(v)), v) for k, v in resets.items())


def encode(obj, fields=None) -> dict:
    """``obj``'s declared entries as a JSON-serializable dict."""
    out: dict = {}
    for key, attr, codec, *_ in obj._STATE if fields is None else fields:
        value = getattr(obj, attr)
        if codec is CHILD:
            if isinstance(value, (list, dict)):
                out[key] = (
                    [c.state_dict() for c in value] if isinstance(value, list)
                    else {k: c.state_dict() for k, c in value.items()}
                )
            elif hasattr(value, "state_dict"):
                out[key] = value.state_dict()
            else:
                out[key] = None
        elif codec is not OPTIONAL_CHILD:
            out[key] = codec.encode(value)
        elif hasattr(value, "state_dict"):
            out[key] = value.state_dict()
    return out


def prepare(obj, state, fields=None, path: str = "") -> Callable[[], None]:
    """Decode ``state`` for ``obj`` completely; return what assigns it.

    Raises ``ValueError`` naming the (``path``-prefixed) key of the first
    missing or malformed entry.  An object's own ``_STATE`` load ends
    with its ``_loaded(state)`` hook.
    """
    if not isinstance(state, dict):
        raise ValueError(f"state {path.rstrip('.') or 'root'!r} is not an object")
    values: list[tuple[str, Any]] = []
    loads: list[Callable[[], None]] = []
    for key, attr, codec, *_ in obj._STATE if fields is None else fields:
        where = path + key
        if codec is OPTIONAL_CHILD and key not in state:
            continue
        if key not in state:
            raise ValueError(f"state key {where!r} is missing")
        raw, child = state[key], getattr(obj, attr)
        if codec is OPTIONAL_CHILD:
            if not hasattr(child, "load_state_dict"):
                raise ValueError(
                    f"state key {where!r} is saved, but {attr} cannot load it"
                )
            loads.append(_prepare_child(child, raw, where))
        elif codec is CHILD:
            loads.extend(_prepare_children(child, raw, where))
        else:
            try:
                value = codec.decode(raw, obj)
            except Exception as exc:
                raise ValueError(f"state key {where!r}: {exc}") from exc
            if value is not KEEP:
                values.append((attr, value))

    def assign() -> None:
        for attr, value in values:
            setattr(obj, attr, value)
        for load in loads:
            load()
        if fields is None:
            obj._loaded(state)

    return assign


def _prepare_children(child, raw, where: str) -> list[Callable[[], None]]:
    if isinstance(child, (list, dict)):
        if isinstance(child, list):
            child = dict(enumerate(child))
            raw = dict(enumerate(raw)) if isinstance(raw, list) else raw
        if not isinstance(raw, dict) or raw.keys() != child.keys():
            saved = sorted(raw) if isinstance(raw, dict) else raw
            raise ValueError(
                f"state key {where!r}: saved {saved} do not match "
                f"configured {sorted(child)}"
            )
        return [_prepare_child(c, raw[k], f"{where}.{k}") for k, c in child.items()]
    if (raw is None) == hasattr(child, "load_state_dict"):
        raise ValueError(f"state key {where!r} does not match the configuration")
    return [] if raw is None else [_prepare_child(child, raw, where)]


def _prepare_child(child, raw, where: str) -> Callable[[], None]:
    if isinstance(child, Persistent):
        return prepare(child, raw, path=where + ".")
    return lambda: child.load_state_dict(raw)


def reset(obj, fields=None) -> None:
    """Assign every declared reset value."""
    for _, attr, codec, *default in obj._STATE if fields is None else fields:
        if default:
            setattr(obj, attr, codec.decode(default[0], obj))


class Persistent:
    """``state_dict``/``load_state_dict`` from the class's ``_STATE``."""

    __slots__ = ()
    _STATE: tuple = ()

    def state_dict(self) -> dict:
        """JSON-serializable mutable state (configuration is not included)."""
        return encode(self)

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a same-config instance;
        an unusable state raises ``ValueError`` before anything changes."""
        prepare(self, state)()

    def _loaded(self, state: dict) -> None:
        """Hook run once a load has assigned every entry."""


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    The bytes are staged at ``path + ".tmp"``, flushed and fsynced, then
    renamed over ``path``: readers see the old file or the new one,
    never a torn write, and the stage file is gone whether or not the
    write succeeds.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
