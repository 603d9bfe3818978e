"""Tests for the domain-free helpers in ``repro.util``."""

import os
import threading

import pytest

from repro import util


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.bin")
        util.atomic_write_bytes(path, b"first")
        util.atomic_write_bytes(path, b"second")
        assert open(path, "rb").read() == b"second"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_interleaved_writers_each_leave_a_complete_payload(
            self, tmp_path, monkeypatch):
        """Both writers finish their temp files before either renames,
        the interleaving that made a shared ``path + '.tmp'`` fail."""
        path = str(tmp_path / "entry.bin")
        payloads = [b"a" * 65536, b"b" * 70000]
        both_written = threading.Barrier(len(payloads), timeout=10)
        real_replace = os.replace

        def replace_after_both_wrote(src, dst):
            assert open(src, "rb").read() in payloads
            both_written.wait()
            real_replace(src, dst)
        monkeypatch.setattr(util.os, "replace", replace_after_both_wrote)
        errors = []

        def write(payload):
            try:
                util.atomic_write_bytes(path, payload)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
        writers = [threading.Thread(target=write, args=(payload,))
                   for payload in payloads]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert errors == []
        assert open(path, "rb").read() in payloads
        assert os.listdir(tmp_path) == ["entry.bin"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "entry.bin")
        util.atomic_write_bytes(path, b"old")

        def failing_replace(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(util.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            util.atomic_write_bytes(path, b"new")
        with pytest.raises(TypeError):
            util.atomic_write_bytes(path, "not bytes")
        assert os.listdir(tmp_path) == ["entry.bin"]
        assert open(path, "rb").read() == b"old"

    def test_mode_follows_umask(self, tmp_path):
        path = str(tmp_path / "out.txt")
        util.atomic_write_text(path, "report")
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~util._UMASK

