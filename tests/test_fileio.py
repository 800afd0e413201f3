import os

from hardlattice import fileio


def test_syncs_the_temp_file_before_the_rename(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync") or fsync(fd))
    monkeypatch.setattr(os, "replace", lambda a, b: events.append("replace") or replace(a, b))
    fileio.atomic_write_text(tmp_path / "out.txt", "new\n")
    assert events == ["fsync", "replace"]
    assert (tmp_path / "out.txt").read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_new_file_gets_the_mode_of_a_plain_open(tmp_path):
    fileio.atomic_write_text(tmp_path / "atomic.txt", "x")
    (tmp_path / "plain.txt").write_text("x")
    mode = os.stat(tmp_path / "plain.txt").st_mode
    assert os.stat(tmp_path / "atomic.txt").st_mode == mode
