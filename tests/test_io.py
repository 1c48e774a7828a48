"""Raster formats and structured-text documents."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resofilt import (
    ConfigError,
    HarmonicModel,
    IRFilter,
    ImageFormatError,
    ImageStack,
    NumericError,
    ObjectBox,
    doc_to_model,
    model_to_doc,
    read_image,
    synth_texture,
    write_image,
)
from resofilt.cli import main
from resofilt.errors import EXIT_INPUT, EXIT_OK
from resofilt.imageio import draw_boxes, write_bytes
from resofilt.model_doc import RunReport, dump_json, load_json

from conftest import FOUR_PAIRS, unit_roots


class TestPgm:
    def test_2x2_known_values(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255]))
        stack = read_image(path)
        assert stack.channels == 1
        assert np.array_equal(stack.planes[0], [[0.0, 85.0], [170.0, 255.0]])

    def test_ppm_three_planes(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        pixels = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120])
        path.write_bytes(b"P6\n2 2\n255\n" + pixels)
        stack = read_image(path)
        assert stack.channels == 3
        assert np.array_equal(stack.planes[0], [[10.0, 40.0], [70.0, 100.0]])
        assert np.array_equal(stack.planes[2], [[30.0, 60.0], [90.0, 120.0]])

    def test_ppm_planes_are_read_only_views_of_the_interleaved_bytes(self, tmp_path, rng):
        # the planes are not de-interleaved: each views the one buffer
        # read, three bytes apart along its rows
        pixels = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        path = tmp_path / "planar.ppm"
        path.write_bytes(b"P6\n7 5\n255\n" + pixels.tobytes())
        stack = read_image(path)
        for c, plane in enumerate(stack.planes):
            assert plane.dtype == np.uint8 and plane.strides == (21, 3)
            assert not plane.flags.writeable
            assert np.array_equal(plane, pixels[:, :, c])
            assert plane.base is stack.planes[0].base

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        stack = read_image(path)
        assert np.array_equal(stack.planes[0], [[7.0, 9.0]])

    def test_truncated_header_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n2 ")
        with pytest.raises(ImageFormatError) as err:
            read_image(path)
        assert err.value.offset is not None

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(ImageFormatError) as err:
            read_image(path)
        assert "truncated pixel data" in str(err.value)
        assert err.value.offset is not None

    @pytest.mark.parametrize("magic,maxval", [(b"P5", 15), (b"P6", 254)])
    def test_sample_above_maxval_reports_its_offset(self, tmp_path, magic, maxval):
        # samples are used as they are, so one above maxval is refused
        channels = 1 if magic == b"P5" else 3
        header = magic + b"\n3 2\n" + str(maxval).encode() + b"\n"
        pixels = bytearray([maxval] * 6 * channels)
        pixels[5] = maxval + 1
        path = tmp_path / "over.pnm"
        path.write_bytes(header + bytes(pixels))
        with pytest.raises(ImageFormatError, match=f"sample {maxval + 1} above maxval") as err:
            read_image(path)
        assert err.value.offset == len(header) + 5
        pixels[5] = maxval
        path.write_bytes(header + bytes(pixels))
        assert read_image(path).planes[0].max() == maxval

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P4\n2 2\n")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_png_is_unsupported_and_never_written(self, tmp_path, capsys):
        path = tmp_path / "tiny.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
        with pytest.raises(ImageFormatError, match="unsupported format magic") as err:
            read_image(path)
        assert err.value.offset == 0
        assert main(["detect", "--input", str(path), "--order", "8,8"]) == EXIT_INPUT
        assert "unsupported format magic" in capsys.readouterr().err
        # the output format follows the channel count, not the extension
        write_image(path, ImageStack((np.zeros((2, 3)),)))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_round_trip_gray(self, tmp_path):
        image = synth_texture([(0.2, 0.3, 40.0, 0.1)], 16, 16, mean=128.0)
        path = tmp_path / "tex.pgm"
        write_image(path, ImageStack((image,)))
        back = read_image(path).planes[0]
        assert np.abs(back - np.clip(np.rint(image), 0, 255)).max() == 0

    def test_round_trip_rgb(self, tmp_path, rng):
        planes = tuple(rng.integers(0, 256, (8, 8)).astype(float) for _ in range(3))
        path = tmp_path / "color.ppm"
        write_image(path, ImageStack(planes))
        back = read_image(path)
        for src, dst in zip(planes, back.planes):
            assert np.array_equal(src, dst)

    def test_uint8_planes_written_as_read(self, tmp_path, rng):
        # 8-bit planes go from read to write without a float copy
        for magic, channels, name in ((b"P5", 1, "g.pgm"), (b"P6", 3, "c.ppm")):
            pixels = rng.integers(0, 256, (6, 9, channels), dtype=np.uint8)
            src, dst = tmp_path / name, tmp_path / ("copy-" + name)
            src.write_bytes(magic + b"\n9 6\n255\n" + pixels.tobytes())
            write_image(dst, read_image(src))
            assert dst.read_bytes() == src.read_bytes()

    def test_stack_keeps_uint8_planes_and_floats_the_rest(self):
        plane = np.arange(6, dtype=np.uint8).reshape(2, 3)
        assert ImageStack((plane,)).planes[0] is plane
        for values in (plane.astype(np.int64), plane.astype(np.float32), plane > 2,
                       plane.tolist()):
            kept = ImageStack((values,)).planes[0]
            assert kept.dtype == np.float64 and np.array_equal(kept, np.asarray(values))
        gray = ImageStack((plane, plane, plane + 1)).gray()
        assert gray.dtype == np.float64
        assert np.array_equal(gray, (3 * plane.astype(float) + 1) / 3)

    def test_quantization_round_half_even(self, tmp_path):
        path = tmp_path / "round.pgm"
        write_image(path, ImageStack((np.array([[0.5, 1.5, 2.5, 3.5]]),)))
        back = read_image(path).planes[0]
        assert back.tolist() == [[0.0, 2.0, 2.0, 4.0]]

    def test_missing_file(self):
        with pytest.raises(ImageFormatError):
            read_image("/definitely/not/here.pgm")

    def test_unreadable_input_names_the_path(self, tmp_path):
        with pytest.raises(ImageFormatError, match="cannot read") as err:
            read_image(tmp_path)
        assert str(tmp_path) in str(err.value)

    @given(
        rgb=st.booleans(),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["set", "insert", "delete", "truncate"]),
                st.integers(0, 80),
                st.binary(min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_bytes_read_or_raise_input_error(self, tmp_path_factory, rgb, edits):
        # header and payload bytes alike: a result or ImageFormatError, nothing else
        planes = (np.arange(20.0).reshape(4, 5),) * (3 if rgb else 1)
        path = tmp_path_factory.getbasetemp() / "mutated.pnm"
        write_image(path, ImageStack(planes))
        data = bytearray(path.read_bytes())
        for op, at, chunk in edits:
            at = min(at, len(data))
            if op == "set":
                data[at : at + len(chunk)] = chunk
            elif op == "insert":
                data[at:at] = chunk
            elif op == "delete":
                del data[at : at + len(chunk)]
            else:
                del data[at:]
        write_bytes(path, bytes(data))  # in place: a truncating rewrite flushes on close
        try:
            stack = read_image(path)
        except ImageFormatError:
            return
        assert stack.channels in (1, 3)
        assert all(plane.ndim == 2 and plane.size > 0 for plane in stack.planes)

    @pytest.mark.parametrize(
        "planes",
        [(), (np.zeros((2, 2)), np.zeros((2, 3))), (np.zeros(4),)],
        ids=["no-planes", "unequal-planes", "one-dimensional"],
    )
    def test_stack_refuses_planes_that_are_not_one_raster(self, planes):
        with pytest.raises(ValueError, match="at least one plane|2D and equally shaped"):
            ImageStack(planes)

    def test_two_planes_cannot_be_written(self, tmp_path):
        path = tmp_path / "two.pgm"
        with pytest.raises(ImageFormatError, match="cannot write 2 channels as PGM/PPM"):
            write_image(path, ImageStack((np.zeros((2, 2)), np.ones((2, 2)))))
        assert not path.exists()


class TestOverlay:
    def test_one_box_exact_rectangle(self):
        stack = ImageStack((np.zeros((10, 10)),))
        out = draw_boxes(stack, [ObjectBox(2, 3, 6, 8)]).planes[0]
        edges = np.argwhere(out == 255.0)
        xs, ys = edges[:, 0], edges[:, 1]
        assert xs.min() == 2 and xs.max() == 6
        assert ys.min() == 3 and ys.max() == 8
        assert out[3, 4] == 0.0  # interior untouched
        perimeter = 2 * (5 + 6) - 4
        assert len(edges) == perimeter


    @pytest.mark.parametrize("value", [255.0, 300.0, -5.0, 127.5, 128.5, 0.4])
    def test_uint8_outline_bytes_equal_the_float_path(self, tmp_path, rng, value):
        # a float plane is quantised at write time (half to even, clipped to
        # 0..255), so a patch of ``value`` under the 255 outline writes the
        # bytes of a uint8 plane holding the quantised patch
        planes = tuple(rng.integers(0, 256, (12, 14), dtype=np.uint8) for _ in range(3))
        u8 = [p.copy() for p in planes]
        f64 = [p.astype(float) for p in planes]
        for u, f in zip(u8, f64):
            u[3:9, 4:11] = np.clip(np.rint(value), 0, 255)
            f[3:9, 4:11] = value
        boxes = [ObjectBox(2, 3, 6, 8), ObjectBox(0, 0, 11, 13), ObjectBox(5, 9, 5, 9)]
        for n in (1, 3):
            before = u8[0].copy()
            drawn = draw_boxes(ImageStack(tuple(u8[:n])), boxes)
            assert all(p.dtype == np.uint8 for p in drawn.planes)
            assert np.array_equal(u8[0], before)  # input untouched
            write_image(tmp_path / "u8", drawn)
            write_image(tmp_path / "f64", draw_boxes(ImageStack(tuple(f64[:n])), boxes))
            assert (tmp_path / "u8").read_bytes() == (tmp_path / "f64").read_bytes()


class TestModelDocument:
    def _model_and_filters(self):
        region = synth_texture([(0.11, 0.23, 1.0, 0.3)], 32, 32, mean=5.0)
        zx = unit_roots([0.0, 0.11, -0.11])
        zy = unit_roots([0.0, 0.23, -0.23])
        model = HarmonicModel.fit(region, zx, zy)
        irf = IRFilter(np.outer([0.25, -0.1, 0.3], [1.0, 0.55, -1.0 / 3.0]), 5.0, 1.25e-7,
                       channel="gray")
        return model, [irf]

    def test_round_trip_full_precision(self, tmp_path):
        model, filters = self._model_and_filters()
        doc = model_to_doc(model, filters)
        text = dump_json(doc, tmp_path / "model.json")
        back_model, back_filters = doc_to_model(load_json(tmp_path / "model.json"))
        assert np.array_equal(back_model.zx.roots, model.zx.roots)
        assert np.array_equal(back_model.zy.roots, model.zy.roots)
        assert np.array_equal(back_model.amplitudes, model.amplitudes)
        assert back_model.fit_residual == model.fit_residual
        assert np.array_equal(back_filters[0].kernel, filters[0].kernel)
        assert back_filters[0].flat_level == filters[0].flat_level
        assert back_filters[0].sigma2 == filters[0].sigma2
        # and the serialised text itself is stable
        assert dump_json(model_to_doc(back_model, back_filters)) == text

    def test_unfitted_model_is_not_written(self):
        # a model built from its parts has a NaN fit residual, which the
        # reader would refuse; the writer names the field instead
        model = HarmonicModel(unit_roots([0.0]), unit_roots([0.0]), np.array([[7.0 + 0j]]))
        with pytest.raises(NumericError, match="non-finite fit_residual"):
            model_to_doc(model)
        nan_amplitude = HarmonicModel(model.zx, model.zy, np.array([[np.nan + 0j]]),
                                      fit_residual=0.0)
        with pytest.raises(NumericError, match="non-finite amplitudes"):
            model_to_doc(nan_amplitude)
        finite = HarmonicModel(model.zx, model.zy, model.amplitudes, fit_residual=0.0)
        back, _ = doc_to_model(json.loads(dump_json(model_to_doc(finite))))
        assert back.fit_residual == 0.0

    def test_golden_example_round_trips(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        section = text[text.index("### Golden example"):]
        doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        model, filters = doc_to_model(doc)
        assert len(filters) == 1
        assert model_to_doc(model, filters) == doc

    def test_version_field_checked(self):
        model, filters = self._model_and_filters()
        doc = model_to_doc(model, filters)
        doc["format_version"] = 999
        with pytest.raises(ImageFormatError):
            doc_to_model(doc)

    def test_malformed_document(self):
        with pytest.raises(ImageFormatError):
            doc_to_model({"format_version": 1, "kind": "resonance-model"})

    def test_report_round_trip(self):
        report = RunReport(
            config={"order": [4, 4]},
            model={"order": [5, 5]},
            frames=[{"frame": 0, "boxes": [], "confirmed": []}],
            timings={"total_s": 1.23},
        )
        doc = json.loads(dump_json(report.to_doc()))
        back = RunReport.from_doc(doc)
        assert back.config == report.config
        assert back.frames == report.frames
        assert back.timings == {}  # excluded by default
        with_timing = json.loads(dump_json(report.to_doc(include_timings=True)))
        assert RunReport.from_doc(with_timing).timings == report.timings

    def test_report_missing_section_is_format_error(self):
        full = RunReport(config={}, model={}, frames=[]).to_doc()
        for key in ("config", "model", "frames"):
            doc = dict(full)
            del doc[key]
            with pytest.raises(ImageFormatError, match=key):
                RunReport.from_doc(doc)

    def test_empty_kernel_is_format_error(self):
        model, filters = self._model_and_filters()
        for kernel in ([[]], [[], []]):
            doc = model_to_doc(model, filters)
            doc["filters"][0]["kernel"] = kernel
            with pytest.raises(ImageFormatError, match="at least one tap"):
                doc_to_model(doc)

    def test_kernel_must_match_its_order_and_the_model(self):
        # the model has 3 roots per axis; each record breaks one rule or both
        model, filters = self._model_and_filters()
        two = [[1.0, 2.0], [2.0, 4.0]]
        for order, kernel in (([99, 99], None), ([2, 2], two), ([3, 3], two)):
            doc = model_to_doc(model, filters)
            doc["filters"][0]["order"] = order
            if kernel is not None:
                doc["filters"][0]["kernel"] = kernel
            with pytest.raises(ImageFormatError, match="gray filter: kernel .* must match"):
                doc_to_model(doc)


class TestWriteBytes:
    """Outputs are rewritten in place: no truncation to zero bytes first."""

    @pytest.mark.parametrize("old,new", [(1000, 100), (100, 1000)])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "out.bin"
        path.write_bytes(b"\xaa" * old)
        data = bytes(range(256)) * 4
        write_bytes(path, data[:new])
        assert path.read_bytes() == data[:new]

    def test_chunks_are_written_one_after_the_other(self, tmp_path):
        # a header and an array body go out as they are, and the file is
        # cut to their total length
        path = tmp_path / "out.bin"
        path.write_bytes(b"\xaa" * 100)
        body = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_bytes(path, b"P5\n", body, b"")
        assert path.read_bytes() == b"P5\n" + body.tobytes()

    def test_creates_a_new_file_with_the_open_mode(self, tmp_path):
        path = tmp_path / "new.bin"
        write_bytes(path, b"fresh")
        reference = tmp_path / "reference.bin"
        reference.write_bytes(b"fresh")
        assert path.read_bytes() == b"fresh"
        assert path.stat().st_mode == reference.stat().st_mode

    def test_keeps_inode_links_and_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old bytes, longer than the new ones")
        path.chmod(0o640)
        hard = tmp_path / "hard.bin"
        os.link(path, hard)
        sym = tmp_path / "sym.bin"
        sym.symlink_to(path)
        inode = path.stat().st_ino
        write_bytes(sym, b"new")
        assert sym.is_symlink()
        assert path.stat().st_ino == inode
        assert hard.read_bytes() == b"new"
        assert path.stat().st_mode & 0o777 == 0o640

    def test_devnull(self):
        write_bytes(os.devnull, b"discarded")

    @pytest.mark.parametrize("target", ["missing/out.bin", "."])
    def test_unwritable_path_is_config_error_naming_it(self, tmp_path, target):
        path = tmp_path / target
        with pytest.raises(ConfigError, match="^output: cannot write") as err:
            write_bytes(path, b"x")
        assert str(path) in str(err.value)

    def test_cli_outputs_never_open_with_truncation(self, tmp_path, monkeypatch):
        # Truncating a written file to zero bytes makes ext4 (auto_da_alloc)
        # start writeback on close: 60-90 ms per output file on a 2-vCPU VM.
        real_open = os.open
        opened = []

        def spy(path, flags, *args, **kwargs):
            assert not flags & os.O_TRUNC, f"{path} opened with O_TRUNC"
            opened.append(os.fspath(path))
            return real_open(path, flags, *args, **kwargs)

        tex = _write_scene(tmp_path / "tex.pgm")
        monkeypatch.setattr(os, "open", spy)
        outs = [str(tmp_path / name) for name in ("mask.pgm", "overlay.pgm", "r.json")]
        for _ in range(2):
            assert main(["detect", "--input", str(tex), "--order", "8,8",
                         "--hist-epsilon", "0.05", "--mask-out", outs[0],
                         "--overlay-out", outs[1], "--report-out", outs[2]]) == EXIT_OK
        model = str(tmp_path / "model.json")
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", model]) == EXIT_OK
        assert set(outs + [model]) <= set(opened)

    def test_cli_rewrite_matches_fresh_outputs(self, tmp_path):
        tex = _write_scene(tmp_path / "tex.pgm")
        names = ("mask.pgm", "overlay.pgm", "report.json")

        def detect(prefix):
            paths = [tmp_path / f"{prefix}_{name}" for name in names]
            assert main(["detect", "--input", str(tex), "--order", "8,8",
                         "--hist-epsilon", "0.05", "--mask-out", str(paths[0]),
                         "--overlay-out", str(paths[1]),
                         "--report-out", str(paths[2])]) == EXIT_OK
            return [p.read_bytes() for p in paths]

        fresh = detect("fresh")
        for name in names:  # stale content longer than every output
            (tmp_path / f"again_{name}").write_bytes(b"\xff" * (len(fresh[0]) * 4))
        assert detect("again") == fresh
        assert detect("again") == fresh


def _write_scene(path):
    image = synth_texture(FOUR_PAIRS[:2], 128, 128, noise_sigma=0.01, seed=3, mean=128.0)
    image[80:91, 80:91] = 220.0
    write_image(path, ImageStack((image,)))
    return path
