"""Damaged index files fail with a typed error or load unchanged.

A saved index is a zip archive (``np.savez_compressed``) of ``.npy``
members plus a JSON ``meta`` member.  Truncating it, or flipping one
byte anywhere in it — a local file header, a member's deflate stream,
the central directory, the end-of-central-directory record — must
either raise a :class:`~repro.exceptions.ReproError` subclass or read
back exactly the arrays and meta that were saved (some header fields,
such as timestamps, change nothing that is read).  A raw ``BadZipFile``,
``zlib.error`` or ``UnicodeDecodeError`` escaping the reader is the
defect this guards against.
"""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import (
    load_index,
    read_index_arrays,
    save_mia_index,
    save_ris_index,
)
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import DataFormatError, ReproError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=60, avg_out_degree=3.0, extent=100.0, city_std=8.0),
        seed=5,
    )


def _regions(data: bytes) -> dict:
    """Byte ranges of the zip structures and of the member payloads."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos = zf.infolist()
        cd_start = zf.start_dir
    headers, payloads = [], []
    for info in infos:
        start = info.header_offset
        name_len = int.from_bytes(data[start + 26:start + 28], "little")
        extra_len = int.from_bytes(data[start + 28:start + 30], "little")
        body = start + 30 + name_len + extra_len
        headers.append((start, body))
        payloads.append((body, body + info.compress_size))
    return {
        "local_header": headers,
        "member_data": payloads,
        "central_directory": [(cd_start, len(data))],
        "anywhere": [(0, len(data))],
    }


@pytest.fixture(scope="module")
def saved(net, tmp_path_factory):
    """``kind -> (file bytes, regions, meta, arrays)`` of one saved index
    of each family, plus a scratch path the cases overwrite."""
    root = tmp_path_factory.mktemp("fuzz")
    decay = DistanceDecay(alpha=0.03)
    ris = RisDaIndex(net, decay, RisDaConfig(
        k_max=4, n_pivots=4, epsilon_pivot=0.5, max_index_samples=600, seed=3,
    ))
    mia = MiaDaIndex(net, decay, MiaDaConfig(n_anchors=6, tau=16))
    out = {}
    for kind, index, save in (("ris", ris, save_ris_index),
                              ("mia", mia, save_mia_index)):
        path = root / f"{kind}.npz"
        save(index, path)
        data = path.read_bytes()
        got_kind, meta, arrays = read_index_arrays(path)
        assert got_kind == kind
        out[kind] = (data, _regions(data), meta, arrays)
    out["scratch"] = root / "case.npz"
    return out


def _check_case(saved, kind, data: bytes) -> str:
    """Write ``data`` and load it; ``"rejected"`` or ``"unchanged"``."""
    _, _, meta, arrays = saved[kind]
    path = saved["scratch"]
    path.write_bytes(data)
    try:
        got_kind, got_meta, got = read_index_arrays(path)
    except ReproError as exc:
        assert str(path) in str(exc)
        return "rejected"
    assert got_kind == kind
    assert got_meta == meta
    assert got.keys() == arrays.keys()
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype, name
        # A cut pivot's pivot_estimates row is NaN (see RisDaIndex).
        assert np.array_equal(
            got[name], arr, equal_nan=arr.dtype.kind == "f"
        ), name
    return "unchanged"


if HAVE_HYPOTHESIS:

    @st.composite
    def _damage(draw):
        kind = draw(st.sampled_from(["ris", "mia"]))
        region = draw(st.sampled_from(
            ["anywhere", "local_header", "member_data", "central_directory"]
        ))
        action = draw(st.sampled_from(["flip", "truncate"]))
        return kind, region, action, draw(st.floats(0.0, 1.0)), draw(
            st.floats(0.0, 1.0)), draw(st.integers(1, 255))


class TestDamagedFiles:
    if HAVE_HYPOTHESIS:

        @settings(max_examples=300, deadline=None)
        @given(case=_damage())
        @example(case=("ris", "anywhere", "truncate", 0.5, 0.0, 1))
        @example(case=("mia", "anywhere", "truncate", 0.0, 0.0, 1))
        @example(case=("ris", "member_data", "flip", 0.5, 0.5, 0x40))
        @example(case=("mia", "central_directory", "flip", 0.0, 0.3, 0xFF))
        @example(case=("ris", "local_header", "flip", 0.0, 0.27, 0x08))
        def test_truncated_or_flipped_file(self, saved, case):
            kind, region, action, pick, at, xor = case
            data, regions, _, _ = saved[kind]
            spans = regions[region]
            lo, hi = spans[min(int(pick * len(spans)), len(spans) - 1)]
            pos = min(lo + int(at * (hi - lo)), hi - 1)
            if action == "truncate":
                damaged = data[:pos]
            else:
                damaged = bytearray(data)
                damaged[pos] ^= xor
                damaged = bytes(damaged)
            outcome = _check_case(saved, kind, damaged)
            if action == "truncate":
                # A shortened archive has lost its end record.
                assert outcome == "rejected"

    def test_every_central_directory_byte_flipped(self, saved):
        """Each byte of the central directory and of the end record,
        flipped in turn: a deterministic sweep of the structure that
        says which members exist (a damaged entry comment length, for
        one, hides every entry after it)."""
        for kind in ("ris", "mia"):
            data, regions, _, _ = saved[kind]
            (lo, hi), = regions["central_directory"]
            outcomes = set()
            for pos in range(lo, hi):
                damaged = bytearray(data)
                damaged[pos] ^= 0xA5
                outcomes.add(_check_case(saved, kind, bytes(damaged)))
            assert outcomes == {"rejected", "unchanged"}


def _npz_with_meta(path, meta_bytes: bytes) -> None:
    np.savez_compressed(
        path, meta=np.frombuffer(meta_bytes, dtype=np.uint8),
        roots=np.arange(3),
    )


def _npz_with_huge_member(path) -> None:
    """A member whose ``.npy`` header declares 2**62 int64 elements."""
    header = "{'descr': '<i8', 'fortran_order': False, 'shape': (%d,), }" % 2**62
    header = header.ljust(117) + "\n"
    member = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("meta.npy", _npy_bytes(np.frombuffer(b"{}", np.uint8)))
        zf.writestr("roots.npy", member + header.encode() + bytes(64))


def _npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


class TestForeignFiles:
    @pytest.mark.parametrize("case", [
        "text", "empty", "npy", "bad_utf8_meta", "list_meta", "bad_json_meta",
        "no_meta", "huge_member",
    ])
    def test_rejected_with_path(self, net, tmp_path, case):
        path = tmp_path / "index.npz"
        if case == "text":
            path.write_text("not an index\n")
        elif case == "empty":
            path.write_bytes(b"")
        elif case == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.arange(4))
        elif case == "bad_utf8_meta":
            _npz_with_meta(path, b"\xff\xfe{}")
        elif case == "list_meta":
            _npz_with_meta(path, json.dumps([1, 2]).encode())
        elif case == "bad_json_meta":
            _npz_with_meta(path, b"{not json")
        elif case == "huge_member":
            _npz_with_huge_member(path)
        else:
            np.savez_compressed(path, roots=np.arange(3))
        with pytest.raises(DataFormatError, match="index.npz"):
            read_index_arrays(path)
        with pytest.raises(DataFormatError):
            load_index(path, net)

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_index_arrays(tmp_path / "missing.npz")
