import numpy as np
import pytest

from persal import SaliencyGrid, export_pgm, read_grid, write_grid
from persal.errors import BadMagicError, ChecksumMismatchError, TruncatedFileError
from persal.gridio import MAGIC, read_shape


class TestRoundTrip:
    def test_values_survive(self, tmp_path):
        rng = np.random.default_rng(0)
        g = SaliencyGrid(rng.random((38, 38)))
        path = tmp_path / "g.fgrd"
        write_grid(g, path)
        back = read_grid(path)
        assert back.shape == (38, 38)
        np.testing.assert_allclose(back.values, g.values, atol=1e-6)

    def test_float32_payload_is_bit_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        g = SaliencyGrid(rng.random((7, 9)))
        a, b = tmp_path / "a.fgrd", tmp_path / "b.fgrd"
        write_grid(g, a)
        write_grid(read_grid(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def write_sample(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "s.fgrd"
        write_grid(SaliencyGrid(rng.random((4, 4))), path)
        return path

    def test_flipped_payload_byte(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            read_grid(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.fgrd"
        path.write_bytes(b"")
        with pytest.raises(TruncatedFileError):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(TruncatedFileError):
            read_grid(path)

    def test_bad_magic(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_grid(path)

    def test_unknown_version(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        assert raw[0:4] == MAGIC
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_grid(path)


class TestReadShape:
    def test_header_only(self, tmp_path):
        path = tmp_path / "s.fgrd"
        write_grid(SaliencyGrid(np.ones((3, 5))), path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # the checksum is read_grid's business
        path.write_bytes(bytes(raw))
        assert read_shape(path) == (3, 5)

    def test_shares_header_validation(self, tmp_path):
        path = tmp_path / "e.fgrd"
        path.write_bytes(b"FGRD")
        with pytest.raises(TruncatedFileError):
            read_shape(path)
        path.write_bytes(b"JUNK" + bytes(9))
        with pytest.raises(BadMagicError):
            read_shape(path)


class TestPgmExport:
    def test_header_and_range(self, tmp_path):
        path = tmp_path / "g.pgm"
        export_pgm(SaliencyGrid(np.array([[0.0, 1.0], [0.25, 0.5]])), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = raw[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [0, 255, 64, 128]

    def test_constant_grid_all_zero(self, tmp_path):
        path = tmp_path / "c.pgm"
        export_pgm(SaliencyGrid(np.full((3, 3), 0.7)), path)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert pixels == bytes(9)

    def test_extremes_hit_full_scale(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "r.pgm"
        export_pgm(SaliencyGrid(rng.random((16, 16))), path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.min() == 0
        assert pixels.max() == 255
