"""Parameter checkpoints: a versioned binary container of named float64 arrays.

Layout: magic line, 8-byte little-endian header length, UTF-8 JSON header,
then the concatenated row-major float64 buffers. The header carries a format
name, version, arbitrary metadata, and the tensor index (name, shape, offset
in float64 elements). Writes are atomic (temp file + rename, through
``atomic_writer``) and byte-stable for identical inputs. ``save_params``
widens the float32 parameters exactly; ``load_params`` returns float64
arrays and refuses a non-finite value. ``result_json`` is the one JSON
encoding of a result file, which refuses NaN and infinity. ``read_items`` is
the loop of every record reader, ``read_jsonl`` and ``jsonl_lines`` its JSONL
form and line rule, and ``record_id`` and ``unique_id`` their id rules.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, ValidationError

MAGIC = b"PCBNET1\n"
FORMAT_NAME = "pcbnet-params"
FORMAT_VERSION = 1


def read_input(path: str | Path, what: str, binary: bool = False) -> str | bytes:
    """Input file ``path``, its bytes decoded as UTF-8 unless ``binary``: a
    ``ConfigError`` if it cannot be read, a ``ValidationError`` naming the line if
    it is not UTF-8. Newlines are not translated: line rules are the reader's."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"{what} cannot be read: {path} ({exc.strerror})") from None
    if binary:
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}: line {line}: not UTF-8 text "
                              f"(byte offset {exc.start})") from None


def output_dir(path: str | Path) -> Path:
    """``path``, made a directory with its parents; a ``ConfigError`` if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError(f"cannot create output directory {path} ({exc.strerror})") from None
    return Path(path)


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A temporary file to write ``path`` through, UTF-8 text unless ``binary``.

    It sits in ``path``'s directory and is renamed over ``path`` when the block
    ends. If the block raises, it is closed and removed, and ``path`` is untouched.
    """
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    fd, tmp = tempfile.mkstemp(dir=output_dir(path.parent), prefix=path.name + ".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def result_json(obj, what: str) -> str:
    """``obj`` as indented JSON with sorted keys. A NaN or an infinity, which
    JSON cannot carry, is a ``ValidationError`` that names ``what``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValidationError(f"{what} holds a non-finite value, which JSON "
                              f"cannot carry") from None


def jsonl_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank physical line of a JSONL text.

    Lines end at "\\n" only, and one trailing "\\r" is dropped. ``str.splitlines``
    would also break at U+0085, U+2028, U+2029 and other separators, which a
    JSON string may hold raw.
    """
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if line.strip():
            yield lineno, line


def read_jsonl(path: str | Path, what: str, parse: Callable,
               id_of: Callable) -> list[tuple[int, object]]:
    """``read_items`` of input file ``path``'s JSON lines, each value handed to ``parse``."""
    return read_items(path, jsonl_lines(read_input(path, what)),
                      lambda line: parse(json.loads(line)), id_of)


def read_items(path: str | Path, items: Iterable[tuple[int, object]], parse: Callable,
               id_of: Callable) -> list[tuple[int, object]]:
    """``(line number, parse(item))`` for each ``(line number, item)`` of input ``path``.

    ``parse`` refuses an item with a ``ValidationError`` (or ``json.loads``'s
    error, for a line that is not JSON). Every item that
    ``parse`` refuses, or whose ``id_of(parsed)`` repeats an earlier item's
    (``unique_id``), is listed with its line in one ``ValidationError``.
    """
    values: list[tuple[int, object]] = []
    errors: list[str] = []
    seen: dict[str, int] = {}
    for lineno, item in items:
        try:
            value = parse(item)
            unique_id(seen, id_of(value), lineno)
            values.append((lineno, value))
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
        # also an over-long integer, deep nesting, a number past float64
        except (ValidationError, ValueError, OverflowError, RecursionError) as exc:
            errors.append(f"line {lineno}: {exc}")
    if errors:
        raise ValidationError(f"{path}: {len(errors)} invalid rows\n" + "\n".join(errors))
    return values


def record_id(value) -> str:
    """A record's JSON ``id``: a string, or an integer read as its decimal string."""
    if isinstance(value, str) or is_int(value):
        return str(value)
    raise ValidationError(f"id must be a string or an integer, got {type(value).__name__}")


def unique_id(seen: dict[str, int], rid: str, lineno: int) -> None:
    """Record that line ``lineno`` holds id ``rid``; a ``ValidationError`` if an
    earlier line in ``seen`` holds it, since an id names one record of an input."""
    first = seen.setdefault(rid, lineno)
    if first != lineno:
        raise ValidationError(f"id {rid!r} repeats line {first}")


def save_params(path: str | Path, tensors: dict[str, np.ndarray],
                meta: dict | None = None) -> None:
    """Write named arrays plus a metadata dict to a single binary file."""
    index = []
    arrays = []
    offset = 0
    for name in sorted(tensors):
        src = np.asarray(tensors[name], dtype=np.float64)
        arr = np.ascontiguousarray(src)  # note: promotes 0-d to 1-d
        index.append({"name": name, "shape": list(src.shape), "offset": offset})
        arrays.append(arr)
        offset += arr.size
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta or {},
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_writer(path, binary=True) as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes)
        for arr in arrays:
            fh.write(arr)  # straight from its buffer, no copy


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (tensors, meta) from a file written by save_params.

    A truncated or otherwise corrupt file, or a tensor that holds a NaN or an
    infinity, raises ``ValidationError``.
    """
    raw = read_input(path, "checkpoint", binary=True)
    if not raw.startswith(MAGIC):
        raise ValidationError(f"{path}: not a {FORMAT_NAME} file")
    pos = len(MAGIC)
    if len(raw) < pos + 8:
        raise ValidationError(f"{path}: truncated before the header length")
    (header_len,) = struct.unpack("<Q", raw[pos:pos + 8])
    pos += 8
    if header_len > len(raw) - pos:
        raise ValidationError(
            f"{path}: header length {header_len} exceeds the {len(raw) - pos} bytes left")
    # ValueError covers bad UTF-8, bad JSON and integers too long to convert;
    # RecursionError, arrays or objects nested too deep
    try:
        header = json.loads(raw[pos:pos + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise ValidationError(f"{path}: unexpected format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported version {header.get('version')!r}")
    index, meta = header.get("tensors"), header.get("meta")
    if not isinstance(index, list) or not isinstance(meta, dict):
        raise ValidationError(f"{path}: header lacks the tensor index or the metadata")
    data_start = pos + header_len
    available = (len(raw) - data_start) // 8
    tensors: dict[str, np.ndarray] = {}
    for entry in index:
        fields = entry if isinstance(entry, dict) else {}
        name, offset, shape = fields.get("name"), fields.get("offset"), fields.get("shape")
        if not (isinstance(name, str) and _is_count(offset) and isinstance(shape, list)
                and all(_is_count(n) for n in shape)):
            raise ValidationError(f"{path}: bad tensor index entry {entry!r}")
        count = math.prod(shape)
        if offset + count > available:
            raise ValidationError(
                f"{path}: tensor {name!r} ({count} values at offset {offset}) "
                f"runs past the {available} values in the file")
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=data_start + offset * 8)
        try:
            tensors[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dimensions, or larger ones, than numpy allows
            raise ValidationError(f"{path}: tensor {name!r} has shape {shape} ({exc})") from exc
        if not np.isfinite(flat).all():
            raise ValidationError(f"{path}: tensor {name!r} holds a non-finite value")
    return tensors, meta


def is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return is_int(value) and value >= 0
