"""Readers and writers for labels, annotations, embeddings, recall tables, and the zero-shot split."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import shutil
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import Dataset, LabelSpace, Signature, offsets, validate_annotation

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """A file failed to parse; the message names its path and the 1-based line."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


def read_text(path: str | Path, data: bytes | None = None) -> str:
    """The UTF-8 text of ``path`` (or of its bytes ``data``); bytes that are not UTF-8 raise ``ParseError``."""
    data = Path(path).read_bytes() if data is None else data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(path, line, f"not UTF-8 text: byte 0x{data[err.start]:02x} ({err.reason})") from None


def decode_json(text: str, path: str | Path, line: int = 1) -> object:
    """``text``, from line ``line`` of ``path``, decoded as JSON: the one decoder of every input. Invalid JSON, a
    value nested past the decoder's limit included, raises ``ParseError`` naming ``path`` and the line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(path, line + err.lineno - 1, f"invalid JSON: {err.msg}") from None
    except RecursionError:
        raise ParseError(path, line, "invalid JSON: nested too deeply") from None


def read_json(path: str | Path) -> object:
    """The JSON document in ``path`` (``decode_json``)."""
    return decode_json(read_text(path), path)


def read_lines(path: str | Path) -> list[str]:
    """The lines of ``path``'s text (``read_text``), each without its ``\\n`` or ``\\r\\n``.

    Lines end at ``\\n`` only: labels, tokens and JSON strings may hold U+0085,
    U+2028 and the other characters ``str.splitlines`` also breaks at. A
    final line without a newline counts; the empty text after one does not.
    """
    lines = read_text(path).split("\n")
    if not lines[-1]:  # the text after the last newline, or an empty file
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def read_jsonl(path: str | Path) -> tuple[int, Iterator[dict]]:
    """The line count of ``path`` and its lines (``read_lines``), decoded one at a time as JSON objects.

    An empty line, invalid JSON (``decode_json``) or a value that is not an
    object raises ``ParseError`` naming the line.
    """
    lines = read_lines(path)

    def records() -> Iterator[dict]:
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip():
                raise ParseError(path, lineno, "empty line")
            record = decode_json(raw, path, lineno)
            if type(record) is not dict:
                raise ParseError(path, lineno, "expected a JSON object")
            yield record

    return len(lines), records()


# Framed binary files (the model checkpoint, the companions): one JSON header
# line with sorted keys, whose "arrays" maps each array's name to its shape,
# then each array's raw bytes, in the order the format defines.
def save_framed(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``header`` plus the shapes of ``arrays`` (already in their file dtypes), then their bytes."""
    header = {**header, "arrays": {name: list(array.shape) for name, array in arrays.items()}}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays.values():
            handle.write(np.ascontiguousarray(array).tobytes())


def load_framed(path: str | Path) -> tuple[object, bytes]:
    """The decoded header line of a framed file and the bytes after it.

    A header line that is not UTF-8 JSON (``read_text``, ``decode_json``) raises ``ParseError`` naming ``path``.
    """
    with open(path, "rb") as handle:
        line = handle.readline()
        payload = handle.read()
    return decode_json(read_text(path, line), path), payload


def framed_arrays(
    path: str | Path, header: dict, payload: bytes, dtypes: dict[str, str], kind: str, unit: str
) -> dict[str, np.ndarray]:
    """The arrays named by ``dtypes``, in its order, as native writable copies of ``payload``'s bytes.

    A header without a valid shape for each array, or a payload of another byte
    count, raises ``ValueError`` naming ``path``, the ``kind`` of file and the
    ``unit`` its bytes hold.
    """
    shapes = header.get("arrays")
    for name in dtypes:
        if not isinstance(shapes, dict) or name not in shapes:
            raise ValueError(f"{path}: {kind} header has no arrays.{name} shape")
        if not isinstance(shapes[name], list) or not all(type(n) is int and n >= 0 for n in shapes[name]):
            raise ValueError(f"{path}: {kind} header arrays.{name} is not a list of non-negative integers")
    expected = sum(np.dtype(dtype).itemsize * math.prod(shapes[name]) for name, dtype in dtypes.items())
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} {unit} bytes after the header, found {len(payload)}")
    arrays, offset = {}, 0
    for name, dtype in dtypes.items():
        values = np.frombuffer(payload, dtype, math.prod(shapes[name]), offset)
        arrays[name] = values.astype(values.dtype.newbyteorder("=")).reshape(shapes[name])
        offset += values.nbytes
    return arrays


# A companion is a framed copy of the values of a JSON-lines file that this
# program writes (annotations, predictions), read instead of the text while
# three digests still match: of the text, of the arrays and of the header's
# other keys (a flipped byte inside a header string leaves valid JSON).
LINES_PER_WRITE = 512
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def companion_path(path: str | Path) -> Path:
    """The binary companion of the JSON-lines file ``path``: the same name with the suffix ``.cols``."""
    return Path(path).with_suffix(".cols")


def _header_sha256(header: dict) -> str:
    return hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8")).hexdigest()


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def save_with_companion(
    path: str | Path, lines: Iterator[str], companion: tuple[dict, dict[str, np.ndarray]] | None
) -> None:
    """Write ``lines`` to ``path`` (hashed as written, never held whole), then ``companion``'s header, with the
    arrays' shapes and the three digests, and arrays. An earlier companion goes first: a failed write leaves none."""
    target = companion_path(path)
    target.unlink(missing_ok=True)
    text_digest = hashlib.sha256()
    with open(path, "wb") as handle:
        while text := "".join(itertools.islice(lines, LINES_PER_WRITE)):
            data = text.encode("utf-8")
            text_digest.update(data)
            handle.write(data)
    if companion is None or target == Path(path):
        return
    header, arrays = companion
    payload_digest = hashlib.sha256()
    for array in arrays.values():
        payload_digest.update(np.ascontiguousarray(array))
    header = {**header, "arrays": {name: list(array.shape) for name, array in arrays.items()},
              "jsonl_sha256": text_digest.hexdigest(), "payload_sha256": payload_digest.hexdigest()}
    save_framed(target, {**header, "header_sha256": _header_sha256(header)}, arrays)


def load_companion(
    path: str | Path, expected: dict, dtypes: dict[str, str]
) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The header, whose ``image_ids`` are distinct strings, and the arrays (``dtypes``' names, in order) of
    ``path``'s companion; the caller checks the values. None, for the caller to parse ``path``, when it is
    missing, holds a header value other than ``expected``'s or a digest that does not match (of its header, of
    its payload, of ``path``'s bytes), or its image ids or shapes do not fit."""
    companion = companion_path(path)
    try:
        header, payload = load_framed(companion)
        if not (
            isinstance(header, dict) and header.pop("header_sha256", None) == _header_sha256(header)
            and all(header.get(key) == value for key, value in expected.items())
            and header.get("payload_sha256") == hashlib.sha256(payload).hexdigest()
            and header.get("jsonl_sha256") == _sha256_file(path)
            and type(ids := header.get("image_ids")) is list and set(map(type, ids)) <= {str}
            and len(set(ids)) == len(ids)
        ):
            return None
        return header, framed_arrays(companion, header, payload, dtypes, "companion", "column")
    except (OSError, ValueError, RecursionError):  # _header_sha256's dumps recurses deeper than loads allows
        return None


def copy_with_companion(source: str | Path, target: str | Path) -> None:
    """Copy ``source`` to ``target``, and ``source``'s companion with it; a stale one at ``target`` goes."""
    shutil.copyfile(source, target)
    if companion_path(source).is_file():
        shutil.copyfile(companion_path(source), companion_path(target))
    else:
        companion_path(target).unlink(missing_ok=True)


# 10**k * 2**-200 for k < 330 as unevaluated sums hi + lo, from exact integers (int / int rounds correctly).
_POW10_HI = np.array([10**k / 2**200 for k in range(330)])
_POW10_LO = np.array([(10**k * den - num * 2**200) / (den * 2**200)
                      for k, (num, den) in enumerate(map(float.as_integer_ratio, _POW10_HI.tolist()))])
_REPR_WIDTH = 24  # the longest repr of a finite float: '-2.2250738585072014e-308'
_REPR_DOUBT = 1e-9  # a rounding boundary or tie this close to S, in units of its last digit, is left to repr
# Where repr puts n significant digits, after a '-' where sign is 1: as d.ddd with an exponent (shift 0), or after
# '0.' and shift - 2 zeros.
_REPR_LAYOUTS = [(sign, shift, n) for sign in (0, 1) for shift in (0, 2, 3, 4, 5) for n in (15, 16, 17)]
_EXPONENTS = np.array([f"e-{e:02d}" for e in range(330)], dtype="S5").view(np.uint8).reshape(-1, 5)


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v`` as hi + lo exactly, each of at most 26 significant bits, so that products of halves are exact."""
    t = 134217729.0 * v  # 2**27 + 1
    t -= t - v
    return t, v - t


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """E = floor(log10(x)); S = x * 10**(16 - E) as n + f, n an integer and 0 <= f < 1; half an ulp of x, scaled alike.

    S is Dekker's double-double product of x and ``_POW10_HI`` + ``_LO``, exact to well within ``_REPR_DOUBT``.
    """
    xs = np.ldexp(x, 200)  # exact; it brings 10**(16 - E) for E down to -308 into range
    e10 = np.floor(np.log10(xs) - 200 * math.log10(2)).astype(np.int16)
    p = xs * _POW10_HI[16 - e10]
    e10 += (p >= 1e17).astype(np.int16) - (p < 1e16)  # where log10 rounded across a power of ten
    b_hi = _POW10_HI[16 - e10]
    np.multiply(xs, b_hi, out=p)  # an integer, above 2**53
    (a1, a2), (b1, b2) = _halves(xs), _halves(b_hi)
    q = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + xs * _POW10_LO[16 - e10]  # S - p
    whole = np.floor(q)
    return e10, p.astype(np.int64) + whole.astype(np.int64), q - whole, 0.5 * np.spacing(xs) * b_hi


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per value of ``x``: whether repr's digits of |x| are proven, those digits as a 17-digit integer, E and 17 - their
    count.

    repr's digits are the multiple of 10**(17 - n) nearest S (``_scaled``) for the fewest n that puts one within half
    an ulp of |x|, the round-trip interval. Proven are normal values with |x| in (0, 1), other than powers of two, whose
    n is 15 to 17, with no interval boundary or rounding tie within ``_REPR_DOUBT`` of a candidate; -x is proven
    exactly when x is.
    """
    magnitude = np.abs(x)
    fast = (magnitude >= 2.2250738585072014e-308) & (magnitude < 1.0) & (x.view(np.int64) & (2**52 - 1) != 0)
    e10, n, f, half_ulp = _scaled(np.where(fast, magnitude, 0.5))
    outside = np.zeros(len(x), np.int8)  # of 14, 15, 16 and 17 digits, how many leave no candidate in reach
    rem = n.copy()
    for step in (1000, 100, 10, 1):
        rem -= rem // step * step
        below = rem + f
        dist = np.minimum(below, step - below)  # from S to the nearest multiple of step
        fast &= np.abs(dist - half_ulp) >= _REPR_DOUBT
        outside += dist >= half_ulp
    step = np.array([1000, 100, 10, 1, 1])[outside]
    rem = n % step
    digits = n - rem + (rem + f >= step / 2) * step
    fast &= (outside > 0) & (outside < 4) & (np.abs(rem + f - step / 2) >= _REPR_DOUBT)
    fast &= (10**16 <= digits) & (digits < 10**17)
    return fast, digits, e10, outside


def _float_reprs(x: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value of the float64 vector ``x``, as ASCII bytes (``S24``).

    The values ``_shortest_digits`` proves are laid out as repr lays them out, the digits of |x| after a ``-`` where
    the sign bit is set, one layout group at a time with whole-column copies; the rest (-0.0 among them) go through
    ``float.__repr__`` itself.
    """
    fast, digits, e10, outside = _shortest_digits(x)
    # Into _REPR_LAYOUTS: 15 groups per sign; fixed down to 1e-4.
    layout = (np.where(e10 >= -4, -3 * e10, 0) + outside - 1 + 15 * np.signbit(x)).astype(np.int8)
    rows = np.flatnonzero(fast)
    rows = rows[np.argsort(layout[rows], kind="stable")]
    digits, e10, layout = digits[rows], e10[rows], layout[rows]
    prefixes = np.zeros((18, len(rows)), np.uint8)  # row i: the first i digits, mod 256
    for i in range(17):
        prefixes[i + 1] = digits // 10 ** (16 - i)  # wraps, but the differences below are 0..9 all the same
    chars = (prefixes[1:] - prefixes[:-1] * np.uint8(10) + np.uint8(ord("0"))).T
    text = np.zeros((len(rows), _REPR_WIDTH), np.uint8)
    bounds = np.searchsorted(layout, np.arange(len(_REPR_LAYOUTS) + 1)).tolist()
    for (sign, shift, count), a, b in zip(_REPR_LAYOUTS, bounds, bounds[1:]):
        if sign:
            text[a:b, 0] = ord("-")
        group = text[a:b, sign:]
        if shift:
            group[:, :shift] = np.frombuffer(b"0.000"[:shift], np.uint8)
            group[:, shift : shift + count] = chars[a:b, :count]
        else:
            group[:, 0], group[:, 1] = chars[a:b, 0], ord(".")
            group[:, 2 : count + 1] = chars[a:b, 1:count]
            group[:, count + 1 : count + 6] = _EXPONENTS[-e10[a:b]]
    out = np.zeros(len(x), f"S{_REPR_WIDTH}")
    out[rows] = text.view(out.dtype).ravel()
    slow = np.flatnonzero(~fast)
    out[slow] = list(map(float.__repr__, x[slow].tolist()))
    return out


_FEATURE_CHUNK = LINES_PER_WRITE * 20  # floats per _row_texts call: the prediction writer's chunk of 20 probs a line


def _json_spelling(values: np.ndarray, text: list | np.ndarray) -> list | np.ndarray:
    """``text``, the ``float.__repr__`` of each of the float64 ``values``, with the encoder's text (``NaN``,
    ``Infinity``, ``-Infinity``) where a value is not finite."""
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = COMPACT_JSON.encode(values[i].item())
    return text


def _row_texts(rows: np.ndarray) -> list[str]:
    """The ``json`` text of each row of the float64 matrix ``rows``, its values comma-joined, from one
    ``_float_reprs`` call and one compaction of the NUL-padded text."""
    flat = rows.ravel()
    cells = np.full((*rows.shape, _REPR_WIDTH + 1), ord(","), np.uint8)  # each value after a comma
    cells[..., 1:] = _json_spelling(flat, _float_reprs(flat)).view(np.uint8).reshape(*rows.shape, _REPR_WIDTH)
    kept = cells != 0
    joined = cells[kept].tobytes().decode("ascii")
    ends = np.cumsum(kept.sum(axis=(1, 2))).tolist()
    return [joined[start + 1 : end] for start, end in zip([0, *ends], ends)]  # without the row's first comma


# The field vocabulary: what a valid value of each kind is in every file the
# CLI reads. Each parser returns the value or raises TypeError/ValueError.
_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; a boolean is not one


def _typed(kind: type, expected: str) -> Callable[[object], object]:
    def parse(value: object):
        if type(value) is not kind:
            raise TypeError(f"expected {expected}, got {value!r}")
        return value

    return parse


string = _typed(str, "a string")
boolean = _typed(bool, "true or false")
json_list = _typed(list, "a list")
json_object = _typed(dict, "a JSON object")


def integer(value: object) -> int:
    """A 64-bit integer."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the 64-bit integer range")
    return value


def number(value: object) -> float:
    """A finite, non-negative number."""
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"expected a number, got {value!r}")
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"must be finite and non-negative, got {value!r}")
    return float(value)


def numbers(value: object) -> list:
    if not (type(value) is list and _NUMBER_TYPES.issuperset(map(type, value))):
        raise TypeError("expected a list of numbers")
    return value


def box(value: object) -> tuple[float, float, float, float]:
    """Four finite numbers ``[x1, y1, x2, y2]``, as floats."""
    if not (type(value) is list and len(value) == 4 and _NUMBER_TYPES.issuperset(map(type, value))):
        raise TypeError(f"expected [x1, y1, x2, y2], got {value!r}")
    if not all(map(math.isfinite, value)):
        raise ValueError(f"coordinates must be finite, got {value!r}")
    return tuple(map(float, value))


def left_to_right_sum(terms: Iterable, total=0.0):
    """``total`` plus each of ``terms`` in order (an array ``total`` in place): how a probs row is added by ``scores``
    and, column by column, by ``metrics``. Python's ``sum`` (from 3.12) and numpy's can overflow where this does not."""
    for term in terms:
        total += term
    return total


def scores(size: int) -> Callable[[object], list]:
    """Parser of a list of ``size`` non-negative numbers with a finite ``left_to_right_sum``."""

    def parse(value: object) -> list:
        if len(numbers(value)) != size:
            raise ValueError(f"expected {size} predicate scores, got {len(value)}")
        # The sum is NaN or infinite when an entry is, so min() need only catch negatives.
        if not (min(value) >= 0.0 and left_to_right_sum(value) < math.inf):
            raise ValueError("must be finite and non-negative")
        return value

    return parse


Fields = tuple[tuple[str, Callable[[object], object]], ...]


def parse_fields(record: object, table: Fields, where: str = "") -> list:
    """``record``'s value at each key of ``table``, through that key's parser, in table order.

    A record that is not a JSON object, a missing key or a value its parser
    refuses raises ``ValueError``, prefixed with ``where``.
    """
    prefix = f"{where}: " if where else ""
    if type(record) is not dict:
        raise ValueError(f"{prefix}expected a JSON object, got {record!r}")
    values = []
    for key, parse in table:
        try:
            values.append(parse(record[key]))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            if key not in record:
                raise ValueError(f"{prefix}missing key {key!r}") from None
            detail = err.args[0] if isinstance(err, KeyError) else err
            raise ValueError(f"{prefix}bad {key!r}: {detail}") from None
    return values


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """One semantic vector per label index of a space, and that vector scaled to unit norm."""

    space: LabelSpace
    vectors: np.ndarray  # (C, dim) float64
    unit: np.ndarray = field(init=False)  # (C, dim) each vector divided by its norm

    def __post_init__(self) -> None:
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)  # row norms sum in one order, any layout
        if vectors.ndim != 2 or vectors.shape[0] != self.space.size:
            raise ValueError(
                f"expected {self.space.size} vectors, got array of shape {vectors.shape}"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding table contains non-finite entries")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            bad = self.space.names[int(np.argmax(norms == 0.0))]
            raise ValueError(f"zero-norm vector for label {bad!r}")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "unit", vectors / norms[:, None])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def load_labels(path: str | Path, kind: str) -> LabelSpace:
    """Read a one-label-per-line file; the index of a label is its line number."""
    names: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(read_lines(path), start=1):
        name = raw.strip()
        if not name:
            raise ParseError(path, lineno, "empty label line")
        if name in seen:
            raise ParseError(path, lineno, f"duplicate label {name!r}")
        seen.add(name)
        names.append(name)
    return LabelSpace(kind=kind, names=tuple(names))


# The annotation companion's arrays, in file order, with their file dtypes:
# per image, then per object (boxes xyxy), then per triple (subj, pred, obj).
_ANNOTATION_COLUMNS = {
    "sizes": "<f8", "object_counts": "<i8", "triple_counts": "<i8", "object_ids": "<i8", "labels": "<i8",
    "boxes": "<f8", "features": "<f8", "triples": "<i8",
}


def _annotation_header(object_space: LabelSpace, predicate_space: LabelSpace, d_roi: int) -> dict:
    return {"format": "sgrel-annotations", "version": 1, "object_labels": list(object_space.names),
            "predicate_labels": list(predicate_space.names), "d_roi": d_roi}


def _companion_dataset(
    path: str | Path, object_space: LabelSpace, predicate_space: LabelSpace, d_roi: int, split: str
) -> Dataset | None:
    """The dataset in ``path``'s companion; None when it is missing or in doubt, its columns do not fit
    together, or it holds a value that the parser would refuse, clamp or drop (a ``validate_annotation``
    violation)."""
    loaded = load_companion(path, _annotation_header(object_space, predicate_space, d_roi), _ANNOTATION_COLUMNS)
    if loaded is None:
        return None
    sizes, object_counts, triple_counts, *columns = loaded[1].values()
    try:
        dataset = Dataset(split, object_space, predicate_space, d_roi, loaded[0]["image_ids"], sizes,
                          offsets(object_counts), offsets(triple_counts), *columns)
    except ValueError:  # a column of another shape, or a negative count
        return None
    return dataset if validate_annotation(dataset) is None else None


def load_annotations(
    path: str | Path,
    object_space: LabelSpace,
    predicate_space: LabelSpace,
    d_roi: int,
    split: str = "train",
) -> Dataset:
    """Read a JSON-lines annotation file into a validated ``Dataset``.

    A missing key or a value the field vocabulary refuses aborts the load, naming
    the line, the ``objects[i]``/``relations[i]`` position and the key. Boxes are
    clamped to the image frame; duplicate ground-truth triples are dropped with a
    logged count. An ``image_id`` that an earlier line holds, or any other
    invariant violation, aborts the load with the line number; of several, the
    earliest line's. The same dataset comes from ``path``'s companion
    (``save_annotations``) instead while it still matches and its values need no
    refusal, clamp or drop.
    """
    dataset = _companion_dataset(path, object_space, predicate_space, d_roi, split)
    if dataset is not None:
        return dataset
    return _parse_annotations(path, object_space, predicate_space, d_roi, split)


def _parse_annotations(
    path: str | Path, object_space: LabelSpace, predicate_space: LabelSpace, d_roi: int, split: str
) -> Dataset:
    """``load_annotations``' reading of the text: every line up to the first refused one, then one
    ``validate_annotation`` of them all."""
    image_fields: Fields = (
        ("image_id", string), ("width", number), ("height", number), ("objects", json_list), ("relations", json_list)
    )
    object_fields: Fields = (
        ("id", integer), ("label", object_space.index_of), ("box", box),
        ("feature", lambda value: np.asarray(numbers(value), dtype=np.float64)),
    )
    relation_fields: Fields = (("subj", integer), ("pred", predicate_space.index_of), ("obj", integer))
    image_ids, sizes, object_counts, triple_counts, objects, triples = [], [], [], [], [], []
    first_line: dict[str, int] = {}  # image id -> line that holds it
    total_duplicates = 0
    refusal = None
    _, records = read_jsonl(path)
    try:
        for lineno, record in enumerate(records, start=1):
            try:
                image_id, width, height, entries, relations = parse_fields(record, image_fields)
                parsed = [parse_fields(entry, object_fields, f"objects[{i}]") for i, entry in enumerate(entries)]
                kept = dict.fromkeys(  # first occurrence of each triple, in order
                    tuple(parse_fields(entry, relation_fields, f"relations[{i}]")) for i, entry in enumerate(relations)
                )
            except ValueError as err:
                raise ParseError(path, lineno, str(err)) from None
            if image_id in first_line:
                raise ParseError(path, lineno, f"image_id {image_id!r} repeats line {first_line[image_id]}")
            first_line[image_id] = lineno
            total_duplicates += len(relations) - len(kept)
            image_ids.append(image_id)
            sizes.append((width, height))
            object_counts.append(len(parsed))
            triple_counts.append(len(kept))
            objects += parsed
            triples += kept
    except ParseError as err:  # a line before it may hold a violation, which the earlier line number wins
        refusal = err
    object_ids, labels, boxes, features = zip(*objects) if objects else ((), (), (), ())
    feature_sizes = np.array([len(feature) for feature in features], dtype=np.int64)
    sizes = np.array(sizes, dtype=np.float64).reshape(-1, 2)
    # The clamp to the image frame, coordinate by coordinate (a -0.0 stays).
    limits = np.repeat(sizes, object_counts, axis=0)[:, [0, 1, 0, 1]]
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    boxes = np.where(boxes > limits, limits, np.where(boxes < 0.0, 0.0, boxes))
    dataset = Dataset(
        split, object_space, predicate_space, d_roi, image_ids, sizes, offsets(object_counts),
        offsets(triple_counts), object_ids, labels, boxes,
        np.array([f if len(f) == d_roi else np.zeros(d_roi) for f in features]).reshape(len(features), d_roi),
        np.array(triples, dtype=np.int64).reshape(-1, 3),
    )
    violation = validate_annotation(dataset, feature_sizes)
    if violation is not None:
        image, violations = violation
        raise ParseError(path, image + 1, "; ".join(violations))
    if refusal is not None:
        raise refusal
    if total_duplicates:
        logger.info("%s: dropped %d duplicate triples at ingest", path, total_duplicates)
    return dataset


def _annotation_lines(dataset: Dataset) -> Iterator[str]:
    """The JSON line of each image, with the bytes ``COMPACT_JSON.encode`` writes for its record: each image one
    f-string over its objects' and relations' text, each label name escaped once, boxes and sizes ``float.__repr__``,
    features from ``_row_texts`` one chunk at a time, and image ids and non-finite values through the encoder."""
    d = dataset
    object_text = list(map(encode_basestring_ascii, d.object_space.names))
    predicate_text = list(map(encode_basestring_ascii, d.predicate_space.names))
    objects = _object_texts(d, object_text)
    relations = (f'{{"subj":{s},"pred":{predicate_text[p]},"obj":{o}}}' for s, p, o in d.triples.tolist())
    sizes = _json_spelling(d.sizes.ravel(), list(map(float.__repr__, d.sizes.ravel().tolist())))
    counts = zip(np.diff(d.object_offsets).tolist(), np.diff(d.triple_offsets).tolist())
    for image_id, width, height, (num_objects, num_triples) in zip(d.image_ids, sizes[::2], sizes[1::2], counts):
        yield (f'{{"image_id":{COMPACT_JSON.encode(image_id)},"width":{width},"height":{height},'
               f'"objects":[{",".join(itertools.islice(objects, num_objects))}],'
               f'"relations":[{",".join(itertools.islice(relations, num_triples))}]}}\n')


def _object_texts(dataset: Dataset, label_text: list[str]) -> Iterator[str]:
    """Each object's JSON text, formatted ``_FEATURE_CHUNK`` features (at least one row) at a time."""
    d = dataset
    rows = max(1, _FEATURE_CHUNK // max(d.d_roi, 1))
    for start in range(0, len(d.object_ids), rows):
        part = slice(start, start + rows)
        boxes = d.boxes[part].ravel()
        corners = iter(_json_spelling(boxes, list(map(float.__repr__, boxes.tolist()))))  # zip takes four an object
        yield from (
            f'{{"id":{object_id},"label":{label_text[label]},"box":[{x1},{y1},{x2},{y2}],"feature":[{feature}]}}'
            for object_id, label, x1, y1, x2, y2, feature in zip(
                d.object_ids[part].tolist(), d.labels[part].tolist(), *[corners] * 4, _row_texts(d.features[part])
            )
        )


def annotations_to_jsonl(dataset: Dataset) -> str:
    """Serialize a dataset in the format ``load_annotations`` reads (lossless round-trip)."""
    return "".join(_annotation_lines(dataset))


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    """Write ``annotations_to_jsonl``'s text to ``path`` and its companion: a header with ``image_ids``, both label
    spaces' names and ``d_roi``, then ``_ANNOTATION_COLUMNS``."""
    d = dataset
    header = {**_annotation_header(d.object_space, d.predicate_space, d.d_roi), "image_ids": list(d.image_ids)}
    columns = (d.sizes, np.diff(d.object_offsets), np.diff(d.triple_offsets), d.object_ids, d.labels, d.boxes,
               d.features, d.triples)
    arrays = {name: column.astype(dtype, copy=False)
              for (name, dtype), column in zip(_ANNOTATION_COLUMNS.items(), columns)}
    save_with_companion(path, _annotation_lines(d), (header, arrays))


def _pool_label_vector(
    label: str, token_vectors: dict[str, np.ndarray], path: str | Path
) -> np.ndarray:
    """Mean of the per-token vectors; multi-word labels average their tokens."""
    vectors = []
    for token in filter(None, label.split(" ")):  # the token rule of load_embeddings: spaces only
        if token not in token_vectors:
            raise ValueError(f"{path}: no embedding for token {token!r} (label {label!r})")
        vectors.append(token_vectors[token])
    return np.mean(vectors, axis=0)


def load_embeddings(path: str | Path, space: LabelSpace) -> EmbeddingTable:
    """Read a token-per-line vector file and pool one vector per label of ``space``."""
    token_vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, raw in enumerate(read_lines(path), start=1):
        parts = raw.split(" ")
        if len(parts) < 2:
            raise ParseError(path, lineno, "expected 'token v1 v2 ... vD'")
        token = parts[0]
        if token in token_vectors:
            raise ParseError(path, lineno, f"duplicate token {token!r}")
        try:
            vector = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as err:
            raise ParseError(path, lineno, f"bad float: {err}") from err
        if dim is None:
            dim = vector.shape[0]
        elif vector.shape[0] != dim:
            raise ParseError(
                path, lineno, f"inconsistent dimension (got {vector.shape[0]}, expected {dim})"
            )
        token_vectors[token] = vector
    vectors = np.stack(
        [_pool_label_vector(label, token_vectors, path) for label in space.names]
    ) if space.size else np.zeros((0, dim or 0))
    try:
        return EmbeddingTable(space=space, vectors=vectors)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write one 'token v1 ... vD' line per label; labels must be single tokens."""
    lines = []
    for name, vector in zip(table.space.names, table.vectors):
        if " " in name:
            raise ValueError(f"cannot serialize multi-word label {name!r} as one token")
        lines.append(name + " " + " ".join(repr(float(v)) for v in vector))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_recalls(path: str | Path, space: LabelSpace) -> np.ndarray:
    """The ``(C_pred,)`` recalls of a {predicate-name: recall} JSON map covering every predicate, each in [0, 1]."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: recalls file must be a JSON object")
    missing = [name for name in space.names if name not in raw]
    if missing:
        raise ValueError(f"{path}: missing recall for predicates {missing}")
    unknown = [name for name in raw if name not in space.names]
    if unknown:
        raise ValueError(f"{path}: unknown predicates {unknown}")
    table = tuple((name, _recall) for name in space.names)
    return np.array(parse_fields(raw, table, str(path)))


def _recall(value: object) -> float:
    if number(value) > 1.0:
        raise ValueError(f"must be at most 1, got {value!r}")
    return float(value)


def dataset_signatures(dataset: Dataset) -> set[Signature]:
    return set(map(tuple, dataset.signatures().tolist()))


def build_zero_shot_index(train: Dataset, test: Dataset) -> frozenset[Signature]:
    """Signatures of ``test`` that never occur in ``train`` (novel label combinations)."""
    if not train.object_space.same_labels(test.object_space) or not (
        train.predicate_space.same_labels(test.predicate_space)
    ):
        raise ValueError("mismatched label spaces between train and test")
    novel = dataset_signatures(test) - dataset_signatures(train)
    return frozenset(novel)


def save_zero_shot_index(
    index: frozenset[Signature], object_space: LabelSpace, predicate_space: LabelSpace, path: str | Path
) -> None:
    rows = sorted(
        [object_space.names[s], predicate_space.names[p], object_space.names[o]]
        for (s, p, o) in index
    )
    Path(path).write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")


def load_zero_shot_index(
    path: str | Path, object_space: LabelSpace, predicate_space: LabelSpace
) -> frozenset[Signature]:
    """Read a JSON list of [subject, predicate, object] label rows; a bad row names the path and row."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of [subject, predicate, object] rows")
    signatures = set()
    for index, row in enumerate(rows, start=1):
        try:
            if type(row) is not list or len(row) != 3:
                raise ValueError(f"expected [subject, predicate, object] labels, got {row!r}")
            subj, pred, obj = map(string, row)
            signatures.add((object_space.index_of(subj), predicate_space.index_of(pred),
                            object_space.index_of(obj)))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: row {index}: {err.args[0]}") from None
    return frozenset(signatures)
