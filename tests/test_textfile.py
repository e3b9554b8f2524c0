"""The shared text-file idiom: exact bytes of every writer, exact values
and line-numbered errors from the motion and music body parser, and
line-numbered errors from the loss-log and report readers."""

import warnings

import numpy as np
import pytest

from dancegen.cli import read_loss_log, write_loss_log
from dancegen.textfile import parse_float_rows, write_text_file
from dancegen.codec import LatentCodeSequence, read_codes_file, write_codes_file
from dancegen.errors import FormatError
from dancegen.metrics import read_report_file, write_report_file
from dancegen.motion import FRAME_WIDTH, MotionSequence, read_motion_file, write_motion_file
from dancegen.music import (
    ENVELOPE_COL,
    MUSIC_WIDTH,
    MusicFeatureSequence,
    read_music_file,
    write_music_file,
)

REPORT = {
    "fid_k": 1.25, "fid_g": 0.1, "div_k": 3.0, "div_g": 4.5, "bas": 0.875,
    "n_sequences": 8, "config_hash": "ab12cd34ef56ab78",
}


def test_motion_bytes(tmp_path):
    frames = np.full((2, FRAME_WIDTH), 0.1)
    frames[1] = -2.5e-07
    path = tmp_path / "a.motion.txt"
    write_motion_file(path, MotionSequence(frames))
    expected = (
        "#format dancegen-motion v1\n#fps 30\n#joint_count 24\n#frame_count 2\n"
        + " ".join(["0.1"] * FRAME_WIDTH) + "\n"
        + " ".join(["-2.5e-07"] * FRAME_WIDTH) + "\n"
    )
    assert path.read_text() == expected
    assert np.array_equal(read_motion_file(path).frames, frames)


def test_music_bytes(tmp_path):
    row = [0.25] * (MUSIC_WIDTH - 3) + [1.0, 0.0, 0.5]
    path = tmp_path / "a.music.txt"
    write_music_file(path, MusicFeatureSequence(np.array([row]), genre_id=3))
    expected = (
        "#format dancegen-music v1\n#fps 30\n#width 35\n#frame_count 1\n#genre_id 3\n"
        + " ".join(["0.25"] * (MUSIC_WIDTH - 3)) + " 1.0 0.0 0.5\n"
    )
    assert path.read_text() == expected
    back = read_music_file(path)
    assert back.genre_id == 3 and np.array_equal(back.frames, [row])


# values whose shortest repr is hard to read back: a signed zero, the least
# subnormal, the least normal, an integer past 2**53's spacing, exponent
# forms, inexact decimals and the largest double
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.1, 1 / 3, 1.7976931348623157e308]


def edge_frames(width):
    """Three rows cycling through EDGE_VALUES and their negatives."""
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    return np.resize(values, (3, width))


def write_motion(path):
    """A motion file of edge values at ``path``; its reader and frames."""
    frames = edge_frames(FRAME_WIDTH)
    write_motion_file(path, MotionSequence(frames))
    return read_motion_file, frames


def write_music(path):
    """A music file of edge values at ``path``; its reader and frames."""
    frames = edge_frames(MUSIC_WIDTH)
    frames[:, ENVELOPE_COL - 2:] = [0.0, 1.0, 1 / 3]  # peak and beat are 0/1, the envelope in [0, 1]
    write_music_file(path, MusicFeatureSequence(frames, genre_id=1))
    return read_music_file, frames


@pytest.mark.parametrize("write", [write_motion, write_music], ids=["motion", "music"])
def test_float_bodies_read_back_bitwise(tmp_path, write):
    path = tmp_path / "clip.txt"
    read, frames = write(path)
    assert read(path).frames.tobytes() == frames.tobytes()


def break_middle_row(row):
    fields = row.split()
    return {
        "blank": "",
        "hash": " ".join(fields[:-1] + ["#" + fields[-1]]),
        "missing": " ".join(fields[:-1]),
        "extra": row + " 1.0",
        "not_a_number": " ".join(fields[:2] + ["abc"] + fields[3:]),
        "underscore": " ".join(["1_0"] + fields[1:]),
        "fullwidth_digit": " ".join(["\uff11"] + fields[1:]),
    }


FAULT_MESSAGES = {
    "blank": "expected {width} fields, got 0",
    "hash": "could not convert string '#",
    "missing": "expected {width} fields, got {fewer}",
    "extra": "expected {width} fields, got {more}",
    "not_a_number": r"could not convert string 'abc' to float64 \(field 3\)",
    # float() reads '1_0' as 10; the body parser does not, and the writer never writes one
    "underscore": "could not convert string '1_0'",
    "fullwidth_digit": "could not convert string '\uff11'",  # float() reads it as 1
}


@pytest.mark.parametrize("fault", list(FAULT_MESSAGES))
@pytest.mark.parametrize("write, width", [(write_motion, FRAME_WIDTH), (write_music, MUSIC_WIDTH)],
                         ids=["motion", "music"])
def test_bad_body_row_names_its_line(tmp_path, write, width, fault):
    path = tmp_path / "clip.txt"
    read, _ = write(path)
    lines = path.read_text().splitlines()
    middle = len(lines) - 2
    lines[middle] = break_middle_row(lines[middle])[fault]
    path.write_text("\n".join(lines) + "\n")
    message = FAULT_MESSAGES[fault].format(width=width, fewer=width - 1, more=width + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=f"line {middle + 1}: {message}"):
            read(path)


@pytest.mark.parametrize("write", [write_motion, write_music], ids=["motion", "music"])
def test_tab_separated_body_reads(tmp_path, write):
    path = tmp_path / "clip.txt"
    read, frames = write(path)
    lines = path.read_text().splitlines()
    lines[-3:] = [row.replace(" ", "\t") for row in lines[-3:]]
    path.write_text("\n".join(lines) + "\n")
    assert read(path).frames.tobytes() == frames.tobytes()


def test_empty_and_all_blank_bodies_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_float_rows("f", [], 3, 4, 0).shape == (0, 4)
        with pytest.raises(FormatError, match="f: line 4: expected 4 fields, got 0"):
            parse_float_rows("f", ["", "  "], 3, 4, 2)


def test_codes_bytes(tmp_path):
    path = tmp_path / "a.codes.txt"
    write_codes_file(path, LatentCodeSequence([3, 0, 9], [1, 2, 4], 10))
    assert path.read_text() == (
        "#format dancegen-codes v1\n#latent_len 3\n#codebook_size 10\n"
        "upper 3 0 9\nlower 1 2 4\n"
    )
    back = read_codes_file(path)
    assert back.upper.tolist() == [3, 0, 9] and back.lower.tolist() == [1, 2, 4]


def test_loss_log_bytes(tmp_path):
    path = tmp_path / "losses.txt"
    write_loss_log(path, [1.5, np.float64(0.1), 2])
    assert path.read_text() == "#format dancegen-losses v1\n0 1.5\n1 0.1\n2 2.0\n"
    assert read_loss_log(path).tolist() == [1.5, 0.1, 2.0]


def test_report_bytes(tmp_path):
    path = tmp_path / "report.txt"
    write_report_file(path, REPORT)
    assert path.read_text() == (
        "#format dancegen-report v1\nfid_k 1.25\nfid_g 0.1\ndiv_k 3.0\ndiv_g 4.5\n"
        "bas 0.875\nn_sequences 8\nconfig_hash ab12cd34ef56ab78\n"
    )
    assert read_report_file(path) == REPORT


def test_loss_log_rejects_wrong_header(tmp_path):
    path = tmp_path / "losses.txt"
    path.write_text("#format dancegen-report v1\n0 1.5\n")
    with pytest.raises(FormatError, match="dancegen-losses"):
        read_loss_log(path)
    path.write_text("#format dancegen-losses v2\n0 1.5\n")
    with pytest.raises(FormatError, match="version"):
        read_loss_log(path)


@pytest.mark.parametrize("body, line", [
    ("0 1.5\n1 abc\n", "line 3"),
    ("0 1.5\n\n2\n", "line 4"),
    ("0 1.5\nabc 0.5\n", "line 3: step 'abc', expected 1"),
    ("0 1.5\n2 0.5\n", "line 3: step '2', expected 1"),
    ("1 1.5\n0 0.5\n", "line 2: step '1', expected 0"),
])
def test_loss_log_bad_value_names_line(tmp_path, body, line):
    path = tmp_path / "losses.txt"
    path.write_text("#format dancegen-losses v1\n" + body)
    with pytest.raises(FormatError, match=line):
        read_loss_log(path)


@pytest.mark.parametrize("key, value, line", [
    ("fid_g", "nope", "line 3"),
    ("n_sequences", "2.5", "line 7"),
])
def test_report_bad_value_names_line(tmp_path, key, value, line):
    path = tmp_path / "report.txt"
    write_report_file(path, dict(REPORT, **{key: value}))
    with pytest.raises(FormatError, match=line):
        read_report_file(path)


@pytest.mark.parametrize("fmt, body, read", [
    ("dancegen-codes", "#latent_len 2\n#codebook_size 10\nupper 1 2\nlower 3 4\nupper 5 6\n",
     read_codes_file),
    ("dancegen-report", "".join(f"{k} {v}\n" for k, v in REPORT.items()) + "bas 0.5\n",
     read_report_file),
    ("dancegen-losses", "0 1.5\n1 0.5\n1 0.25\n", read_loss_log),
], ids=["codes", "report", "losses"])
def test_repeated_key_names_line(tmp_path, fmt, body, read):
    path = tmp_path / "keyed.txt"
    path.write_text(f"#format {fmt} v1\n" + body)
    line = len(path.read_text().splitlines())
    with pytest.raises(FormatError, match=f"line {line}: repeated key"):
        read(path)


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "losses.txt"
    write_loss_log(path, [1.5, 0.25])
    old = path.read_bytes()
    mode = path.stat().st_mode

    def rows():
        yield "0 9.0"
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        write_text_file(path, "dancegen-losses", 1, {}, rows())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["losses.txt"]
    write_loss_log(path, [2.0])
    assert path.read_text() == "#format dancegen-losses v1\n0 2.0\n"
    assert path.stat().st_mode == mode


LOOSE_INTEGERS = {"underscore": "1_0", "fullwidth_digit": "１", "fullwidth_number": "２４０"}


@pytest.mark.parametrize("token", list(LOOSE_INTEGERS.values()), ids=list(LOOSE_INTEGERS))
def test_code_token_must_be_ascii_digits(tmp_path, token):
    # int() reads '1_0' as 10 and a fullwidth digit as its value
    path = tmp_path / "a.codes.txt"
    write_codes_file(path, LatentCodeSequence([3, 0, 9], [1, 2, 4], 100))
    path.write_text(path.read_text().replace("lower 1 2", f"lower 1 {token}"))
    with pytest.raises(FormatError, match=f"line 5: invalid integer '{token}'"):
        read_codes_file(path)


@pytest.mark.parametrize("token", ["2_40", "２４０", "240.0", "0x10"],
                         ids=["underscore", "fullwidth", "float", "hex"])
@pytest.mark.parametrize("write", [write_motion, write_music], ids=["motion", "music"])
def test_header_integer_must_be_ascii_digits(tmp_path, write, token):
    path = tmp_path / "clip.txt"
    read, frames = write(path)
    text = path.read_text()
    count = f"#frame_count {frames.shape[0]}\n"
    line = text[:text.index(count)].count("\n") + 1
    path.write_text(text.replace(count, f"#frame_count {token}\n"))
    with pytest.raises(FormatError, match=f"line {line}: invalid integer '{token}'"):
        read(path)


def test_report_count_must_be_ascii_digits(tmp_path):
    path = tmp_path / "report.txt"
    write_report_file(path, dict(REPORT, n_sequences="1_6"))
    with pytest.raises(FormatError, match="line 7: invalid integer '1_6'"):
        read_report_file(path)


def test_signed_and_space_padded_integers_still_read(tmp_path):
    path = tmp_path / "a.codes.txt"
    path.write_text("#format dancegen-codes v1\n#latent_len 2 \n#codebook_size +10\n"
                    "upper +3 0\nlower 1 2\n")
    back = read_codes_file(path)
    assert back.upper.tolist() == [3, 0] and back.codebook_size == 10


def test_missing_header_integer_is_named(tmp_path):
    path = tmp_path / "a.codes.txt"
    path.write_text("#format dancegen-codes v1\n#latent_len 2\nupper 3 0\nlower 1 2\n")
    with pytest.raises(FormatError, match="missing header field 'codebook_size'"):
        read_codes_file(path)
