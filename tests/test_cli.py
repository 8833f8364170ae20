import argparse
import hashlib
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest

from gradgen import checkpoint as ckpt_io
from gradgen import cli
from gradgen.config import ConfigError, RunConfig, format_config, load_config, parse_config
from gradgen.decoder import LatentStore, init_decoder_params, train_autodecoder
from gradgen.evalstats import STATISTICS
from gradgen.flow import init_flow_params, train_flow
from gradgen.graphdata import atomic_write_text, gen_cycles, load_graphs, order_nodes, save_graphs, to_lower
from gradgen.tensorcore.optim import AdamState


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def cli_env(**extra):
    """The environment for a ``gradgen.cli`` subprocess: this checkout's
    ``src`` first on the path, so no install is needed."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "gradgen.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


TINY_CFG = """
d = 8
heads = 2
d_s_decoder = 4
d_s_flow = 4
M = 1
R = 2
C = 3
decoder_epochs = 2
flow_epochs = 2
batch = 6
tau = 1e-3
seed = 5
"""


@pytest.fixture()
def tiny_data(tmp_path):
    gs = sorted(gen_cycles(), key=lambda g: g.n)[:10]
    path = tmp_path / "data.g"
    save_graphs(path, gs)
    return str(path)


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def tiny_cfg_with(tmp_path, line):
    """The tiny config file with one more ``key = value`` line, which wins
    over an earlier line for the same key."""
    path = tmp_path / "tiny_more.cfg"
    path.write_text(TINY_CFG + line + "\n")
    return str(path)


# -- config ---------------------------------------------------------------


def test_config_defaults_match_documented_values():
    cfg = RunConfig()
    assert (cfg.d, cfg.heads, cfg.d_s_decoder, cfg.d_s_flow) == (32, 8, 16, 10)
    assert (cfg.M, cfg.R, cfg.C, cfg.K) == (2, 9, 20, 1)
    assert (cfg.delta, cfg.tau) == (0.1, 5e-5)
    assert (cfg.decoder_epochs, cfg.flow_epochs, cfg.batch) == (500, 800, 20)
    assert cfg.sigma_sample == 0.7
    assert cfg.ordering == "bfs"
    assert cfg.flow_noise == 0.05
    assert cfg.mode == "grad"


def test_config_parse_roundtrip():
    cfg = parse_config("d = 16\nmode = grad_d\ntau = 1e-4\n")
    assert cfg.d == 16 and cfg.mode == "grad_d" and cfg.tau == 1e-4
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("not_a_key = 3\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("d = 33\n")  # odd feature width
    with pytest.raises(ConfigError):
        parse_config("mode = banana\n")
    with pytest.raises(ConfigError):
        parse_config("d = x\n")
    with pytest.raises(ConfigError):
        parse_config("d : 3\n")
    with pytest.raises(ConfigError, match=r"^config field 'seed' must be a non-negative integer, got -1$"):
        parse_config("seed = -1\n")


@pytest.mark.parametrize("scheme", ["default", "dfs", "degree", "kcore"])
def test_config_accepts_only_the_bfs_ordering(scheme, tmp_path):
    cfg = tiny_cfg_with(tmp_path, f"ordering = {scheme}")
    with pytest.raises(ConfigError) as bad:
        load_config(cfg)
    assert str(bad.value).startswith(f"{cfg}: ") and "'bfs'" in str(bad.value)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
def test_config_rejects_non_finite_values(name, value, tmp_path, capsys):
    cfg = tiny_cfg_with(tmp_path, f"{name} = {value}")
    assert cli.main(["show-config", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: config field '{name}' must be a finite number, got {value}\n"


@pytest.mark.parametrize("command", ["sample", "gen-data"])
def test_negative_seed_flag_is_named(command, tmp_path, capsys, monkeypatch):
    ckpt = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(ckpt, small_checkpoint())
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    args = {"sample": ["sample", str(ckpt), "2", "--out", str(tmp_path / "x.g")],
            "gen-data": ["gen-data", "lobster", str(tmp_path / "x.g")]}[command]
    assert cli.main(args + ["--seed", "-1"]) == 1
    named = "--seed" if command == "gen-data" else "config field 'seed'"
    assert capsys.readouterr().err == f"error: {named} must be a non-negative integer, got -1\n"
    assert not (tmp_path / "x.g").exists()


def test_config_file_errors_name_the_file(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dd = 3\n")
    with pytest.raises(ConfigError, match=r"^line 1: unknown config key 'dd'$"):
        parse_config(bad.read_text())
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    assert cli.main(["train", str(tmp_path / "none.g"), "--config", str(bad), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 1: unknown config key 'dd'\n"


def test_config_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\n\nd = 16  # trailing\n")
    assert load_config(p).d == 16


# -- checkpoint -----------------------------------------------------------


def random_adam(params, rng) -> AdamState:
    """Adam moments of random values for every tensor of ``params``, at step 17."""
    adam = AdamState(step=17)
    for name, t in params.tensors():
        adam.m[name] = rng.standard_normal(t.data.shape)
        adam.v[name] = np.abs(rng.standard_normal(t.data.shape))
    return adam


def small_checkpoint(with_flow=True, seed=3):
    cfg = RunConfig(d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3, seed=seed).validate()
    rng = np.random.default_rng(seed)
    dec = init_decoder_params(cfg, rng)
    store = LatentStore([rng.uniform(-1, 1, size=(n, cfg.d)) for n in (4, 6)])
    flow = init_flow_params(cfg, rng) if with_flow else None
    return ckpt_io.Checkpoint(
        config=cfg,
        decoder=dec,
        store=store,
        flow=flow,
        decoder_adam=random_adam(dec, rng),
        decoder_epochs_done=9,
        flow_epochs_done=4,
        train_sizes=[4, 6],
    )


def test_checkpoint_roundtrip_bitwise(tmp_path):
    ckpt = small_checkpoint()
    path = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(path, ckpt)
    back = ckpt_io.load_checkpoint(path)
    for (n1, t1), (n2, t2) in zip(ckpt.decoder.tensors(), back.decoder.tensors()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
    for (n1, t1), (n2, t2) in zip(ckpt.flow.tensors(), back.flow.tensors()):
        assert t1.data.tobytes() == t2.data.tobytes(), n1
    for a, b in zip(ckpt.store.codes, back.store.codes):
        assert a.tobytes() == b.tobytes()
    for name in ckpt.decoder_adam.m:
        assert ckpt.decoder_adam.m[name].tobytes() == back.decoder_adam.m[name].tobytes()
        assert ckpt.decoder_adam.v[name].tobytes() == back.decoder_adam.v[name].tobytes()
    assert back.decoder_adam.step == 17
    assert back.decoder_epochs_done == 9 and back.flow_epochs_done == 4
    assert back.train_sizes == [4, 6]
    assert back.config == ckpt.config
    # save the loaded copy again: identical bytes on disk
    path2 = tmp_path / "m2.ckpt"
    ckpt_io.save_checkpoint(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_load_holds_one_copy_of_the_tensors(tmp_path):
    """At the paper config, with the flow and both Adam states, one load's
    traced allocation peak stays near the tensor bytes: each tensor is read
    into its own array, with no payload-sized buffer and no second copy."""
    cfg = RunConfig(seed=3).validate()
    rng = np.random.default_rng(3)
    dec, flow = init_decoder_params(cfg, rng), init_flow_params(cfg, rng)
    sizes = [40, 60]
    ckpt = ckpt_io.Checkpoint(
        config=cfg, decoder=dec, store=LatentStore([rng.uniform(-1, 1, size=(n, cfg.d)) for n in sizes]),
        flow=flow, decoder_adam=random_adam(dec, rng), flow_adam=random_adam(flow, rng), train_sizes=sizes,
    )
    path = tmp_path / "paper.ckpt"
    ckpt_io.save_checkpoint(path, ckpt)
    saved = ckpt.named_tensors()
    nbytes = sum(arr.nbytes for arr in saved.values())
    tracemalloc.start()
    try:
        back = ckpt_io.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * nbytes, f"load peaked at {peak / nbytes:.2f}x the {nbytes} tensor bytes"
    loaded = back.named_tensors()
    assert loaded.keys() == saved.keys()
    for name, arr in loaded.items():
        assert arr.flags.owndata and arr.flags.c_contiguous and arr.flags.writeable, name
        assert arr.dtype == np.float64 and arr.tobytes() == saved[name].tobytes(), name


def test_checkpoint_without_flow(tmp_path):
    ckpt = small_checkpoint(with_flow=False)
    path = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(path, ckpt)
    back = ckpt_io.load_checkpoint(path)
    assert back.flow is None


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ckpt_io.CheckpointError, match="magic"):
        ckpt_io.load_checkpoint(p)


def test_checkpoint_truncated_preamble_is_named(tmp_path):
    p = tmp_path / "short.ckpt"
    p.write_bytes(b"GRAD\x01\x00")
    with pytest.raises(ckpt_io.CheckpointError, match=r"short\.ckpt: truncated preamble \(6 of 16 bytes\)"):
        ckpt_io.load_checkpoint(p)
    proc = run_cli("sample", p, 2, "--out", tmp_path / "x.g", check=False)
    assert proc.returncode == 1
    assert "truncated preamble" in proc.stderr and "Traceback" not in proc.stderr


def with_header(data: bytes, edit) -> bytes:
    """A checkpoint's bytes with its JSON header replaced by ``edit(header)``."""
    (hlen,) = struct.unpack("<Q", data[8:16])
    raw = json.dumps(edit(json.loads(data[16 : 16 + hlen]))).encode()
    return data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + hlen :]


def edit_first_entry(edit):
    """A header edit that replaces the first entry-table row by ``edit(row)``."""
    return lambda h: {**h, "entries": [edit(h["entries"][0])] + h["entries"][1:]}


def edit_entry(name, edit):
    """A header edit that replaces the entry-table row of tensor ``name`` by ``edit(row)``."""
    return lambda h: {**h, "entries": [edit(e) if e["name"] == name else e for e in h["entries"]]}


def drop_entry(name):
    return lambda h: {**h, "entries": [e for e in h["entries"] if e["name"] != name]}


def set_field(key, value):
    return lambda h: {**h, key: value}


# the header's scalar fields, each with values of the wrong JSON type or sign
BAD_FIELD_VALUES = {
    "decoder_epochs_done": ["3", 2.0, True, None, -4],
    "flow_epochs_done": ["3", -1],
    "decoder_adam_step": [None, "17", False, -1],
    "flow_adam_step": [1.5, -2],
    "has_flow": [1, "yes", None],
    "flow_initialized": ["no", 0],
    "train_sizes": [5, "4,6", [4, "6"], [4, 0], [4, -6], [4, True]],
    "config": [[], "d = 8"],
    "entries": [5, {}],
}


def test_checkpoint_truncated_or_invalid_header_is_named(tmp_path, tiny_data, capsys, monkeypatch):
    good = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(good, small_checkpoint())
    data = good.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[: 16 + hlen // 2])
    with pytest.raises(ckpt_io.CheckpointError, match=r"cut\.ckpt: truncated header"):
        ckpt_io.load_checkpoint(cut)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:16] + data[16 : 16 + hlen // 2] + b" " * (hlen - hlen // 2) + data[16 + hlen :])
    with pytest.raises(ckpt_io.CheckpointError, match=r"bad\.ckpt: truncated or corrupt header"):
        ckpt_io.load_checkpoint(bad)
    # well-formed JSON that is not a checkpoint header, through the library and the CLI
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    header = json.loads(data[16 : 16 + hlen])
    d = header["config"]["d"]
    for edit, message in [
        *[(lambda h, key=key: {k: v for k, v in h.items() if k != key}, f"header has no '{key}'") for key in header],
        *[(set_field(key, value), rf"header field '{key}' must be .*, got {re.escape(repr(value))}$")
          for key, values in BAD_FIELD_VALUES.items() for value in values],
        (lambda h: [h], "header is a JSON list, not an object"),
        (lambda h: {**h, "config": {**h["config"], "seed": 1.5}},
         r"bad config \(config field 'seed' must be a non-negative integer, got 1\.5\)"),
        *[(lambda h, key=key, value=value: {**h, "config": {**h["config"], key: value}},
           rf"bad config \(config field '{key}' must be {kind}, got {re.escape(repr(value))}\)")
          for key, value, kind in [("heads", 2.0, "an integer"), ("K", 1.5, "an integer"), ("d", True, "an integer"),
                                   ("tau", "5e-5", "a finite number"), ("mode", 3, "a string")]],
        (set_field("train_sizes", [4, 7]), rf"tensor latent/1 has shape \(6, {d}\), expected \(7, {d}\)"),
        (edit_entry("latent/0", lambda e: {**e, "shape": [2, 2 * d]}),
         rf"tensor latent/0 has shape \(2, {2 * d}\), expected \(4, {d}\)"),
        (drop_entry("adam-v/decoder/pi/w3"), "missing tensor adam-v/decoder/pi/w3"),
        (edit_entry("adam-m/decoder/lam/w1", lambda e: {**e, "shape": e["shape"][::-1]}),
         r"tensor adam-m/decoder/lam/w1 has shape \(\d+, \d+\), expected"),
        (set_field("flow_adam_step", 2), "missing tensor adam-m/flow/"),
        (lambda h: {**h, "has_flow": False, "flow_adam_step": 2},
         "'flow_adam_step' is 2 but the checkpoint has no flow"),
        (lambda h: {**h, "config": {**h["config"], "dd": 1}}, r"bad config \(.*unexpected keyword argument 'dd'\)"),
        (drop_entry("latent/1"), "missing tensor latent/1"),
        # a second row for a name, pointing at another tensor's bytes
        (lambda h: {**h, "entries": h["entries"] + [{**h["entries"][1], "name": h["entries"][0]["name"]}]},
         rf"entry {len(header['entries'])} repeats tensor {re.escape(header['entries'][0]['name'])}$"),
        *[(edit_first_entry(lambda e, key=key: {k: v for k, v in e.items() if k != key}), f"entry 0 has no '{key}'")
          for key in ("name", "shape", "offset")],
        (edit_first_entry(lambda e: 5), "entry 0 is a JSON int, not an object"),
        *[(edit_first_entry(lambda e, key=key, value=value: {**e, key: value}),
           f"entry 0 needs a string name and non-negative integer shape and offset, "
           f"got .*'{key}': {re.escape(repr(value))}")
          for key, value in [("name", [1]), ("shape", [1.5]), ("shape", 3), ("offset", "0"), ("offset", -8)]],
    ]:
        bad.write_bytes(with_header(data, edit))
        with pytest.raises(ckpt_io.CheckpointError, match=rf"bad\.ckpt: {message}"):
            ckpt_io.load_checkpoint(bad)
        for argv in (["sample", str(bad), "2", "--out", str(tmp_path / "x.g")],
                     ["train", tiny_data, "--out", str(bad), "--resume"]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    # the parent format's copies of the config and the latent count are not read
    bad.write_bytes(with_header(data, set_field("n_latents", "3")))
    assert ckpt_io.load_checkpoint(bad).train_sizes == [4, 6]


def test_checkpoint_load_draws_no_random_number(tmp_path, monkeypatch):
    """A load builds the decoder and the flow without drawing the initial
    values that the stored tensors replace."""
    ckpt = small_checkpoint()
    path = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(path, ckpt)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    back = ckpt_io.load_checkpoint(path)
    saved, loaded = ckpt.named_tensors(), back.named_tensors()
    assert loaded.keys() == saved.keys()
    assert all(arr.tobytes() == saved[name].tobytes() for name, arr in loaded.items())


def test_checkpoint_truncated_payload_is_named(tmp_path, monkeypatch):
    good = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(good, small_checkpoint())
    data = good.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    names = [e["name"] for e in sorted(json.loads(data[16 : 16 + hlen])["entries"], key=lambda e: e["offset"])]
    cut = tmp_path / "cut.ckpt"
    # the first tensor keeps only its first float; the last one loses its last float
    for size, name in ((16 + hlen + 8, names[0]), (len(data) - 8, names[-1])):
        cut.write_bytes(data[:size])
        with pytest.raises(ckpt_io.CheckpointError,
                           match=rf"cut\.ckpt: truncated payload: tensor {re.escape(name)} ends at byte"):
            ckpt_io.load_checkpoint(cut)
    # a file that shrinks after its size was read: the short read names the tensor
    short = rf"cut\.ckpt: truncated payload: tensor {re.escape(names[-1])} read \d+ of \d+ bytes"
    with monkeypatch.context() as m, pytest.raises(ckpt_io.CheckpointError, match=short):
        m.setattr(ckpt_io.os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(data)))
        ckpt_io.load_checkpoint(cut)


# sha256 of the JSON-encoded sorted (name, shape) entry list in test_checkpoint_layout_is_pinned
LAYOUT_SHA256 = "8267c65ebb7fb4775425a0193ffa55415a3dc34695a47f4492c0e82841bd5507"


def test_checkpoint_layout_is_pinned(tmp_path):
    """A renamed, added or dropped tensor breaks ``--resume`` from a checkpoint
    written before the change, so the entry table of a grad-mode checkpoint
    with one Adam step on each model is pinned."""
    cfg = RunConfig(d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3,
                    decoder_epochs=1, flow_epochs=1, batch=4, seed=1).validate()
    graphs = sorted(gen_cycles(), key=lambda g: g.n)[:4]
    ordered = [to_lower(g, order_nodes(g, cfg.ordering)) for g in graphs]
    decoder_adam, flow_adam = AdamState(), AdamState()
    dec, store, _ = train_autodecoder(ordered, cfg, adam=decoder_adam)
    flow, _ = train_flow(store, ordered, cfg, adam=flow_adam)
    assert decoder_adam.step == flow_adam.step == 1
    path = tmp_path / "m.ckpt"
    ckpt_io.save_checkpoint(path, ckpt_io.Checkpoint(
        config=cfg, decoder=dec, store=store, flow=flow, decoder_adam=decoder_adam, flow_adam=flow_adam,
        decoder_epochs_done=1, flow_epochs_done=1, train_sizes=[g.n for g in graphs],
    ))
    data = path.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    entries = sorted((e["name"], e["shape"]) for e in json.loads(data[16 : 16 + hlen])["entries"])
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == LAYOUT_SHA256, entries


def test_resume_matches_straight_run():
    cfg = RunConfig(d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3,
                    decoder_epochs=6, batch=5, tau=1e-3, seed=2, decoder_noise=0.05).validate()
    train = [to_lower(g, order_nodes(g, "bfs")) for g in sorted(gen_cycles(), key=lambda g: g.n)[:8]]

    params_a, store_a, _ = train_autodecoder(train, cfg)

    # interrupted run: stop at epoch 3, then continue with fresh objects
    params_b, store_b, _ = train_autodecoder(train, cfg, stop_epoch=3)
    adam = AdamState()
    # reconstruct optimizer state by replaying through a checkpoint round trip
    params_b2, store_b2, _ = train_autodecoder(train, cfg, stop_epoch=3, adam=adam)
    params_c, store_c, _ = train_autodecoder(
        train, cfg, params=params_b2, store=store_b2, adam=adam, start_epoch=3
    )
    for (n1, t1), (n2, t2) in zip(params_a.tensors(), params_c.tensors()):
        assert t1.data.tobytes() == t2.data.tobytes(), n1
    for a, b in zip(store_a.codes, store_c.codes):
        assert a.tobytes() == b.tobytes()


class _Interrupted(Exception):
    pass


def interrupt_and_resume(tmp_path, data, monkeypatch, phase, crash_epoch, edit_header=lambda h: h):
    """Train a small grad model straight through, then again with an
    interruption after logging ``crash_epoch`` of ``phase`` and a resume from
    the last checkpoint, its header first replaced by ``edit_header(header)``.
    Returns the paths of the straight and the resumed checkpoint."""
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(TINY_CFG.replace("decoder_epochs = 2", "decoder_epochs = 5").replace("flow_epochs = 2", "flow_epochs = 4"))
    monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    straight = tmp_path / "straight.ckpt"
    assert cli.main(["train", data, "--config", str(cfg), "--out", str(straight)]) == 0

    # crash after logging `crash_epoch`, past the last checkpoint (epoch 2 or 0)
    log_row = cli._EpochLog.__call__

    def crashing(self, epoch, lr, nll):
        log_row(self, epoch, lr, nll)
        if self.phase == phase and epoch == crash_epoch:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(f"{phase},{epoch + 1},0.1")  # a row cut short
            raise _Interrupted

    resumed = tmp_path / "resumed.ckpt"
    args = ["train", data, "--config", str(cfg), "--out", str(resumed)]
    monkeypatch.setattr(cli._EpochLog, "__call__", crashing)
    with pytest.raises(_Interrupted):
        cli.main(args)
    monkeypatch.setattr(cli._EpochLog, "__call__", log_row)
    resumed.write_bytes(with_header(resumed.read_bytes(), edit_header))
    assert cli.main(args + ["--resume"]) == 0
    return straight, resumed


@pytest.mark.parametrize("phase,crash_epoch", [("decoder", 3), ("flow", 1)])
def test_resumed_log_matches_straight_run(tmp_path, tiny_data, monkeypatch, phase, crash_epoch):
    interrupt_and_resume(tmp_path, tiny_data, monkeypatch, phase, crash_epoch)
    text = (tmp_path / "resumed.ckpt.log").read_bytes()
    assert text == (tmp_path / "straight.ckpt.log").read_bytes()
    assert text.count(b"summary,") == 1


@pytest.mark.parametrize("row", ["decoder0.1", "decoder,zero,0.001,18.5", "codes,1,0.001,18.5"])
def test_resume_names_a_malformed_log_row(tmp_path, tiny_data, tiny_cfg_file, capsys, row):
    ckpt = tmp_path / "m.ckpt"
    args = ["train", tiny_data, "--config", tiny_cfg_file, "--out", str(ckpt)]
    assert cli.main(args) == 0
    log = tmp_path / "m.ckpt.log"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:2] + [row + "\n"] + lines[2:]))
    capsys.readouterr()
    assert cli.main(args + ["--resume"]) == 1
    assert capsys.readouterr().err == f"error: {log}:3: malformed log row {row!r}\n"


def test_parent_format_checkpoint_resumes(tmp_path, tiny_data, monkeypatch):
    # headers written before `seed`, `mode` and `n_latents` were dropped
    def parent_format(h):
        return {**h, "seed": h["config"]["seed"], "mode": h["config"]["mode"], "n_latents": len(h["train_sizes"])}

    straight, resumed = interrupt_and_resume(tmp_path, tiny_data, monkeypatch, "decoder", 3, parent_format)
    assert resumed.read_bytes() == straight.read_bytes()
    assert (tmp_path / "resumed.ckpt.log").read_bytes() == (tmp_path / "straight.ckpt.log").read_bytes()


@pytest.mark.parametrize("fails", ["write", "rename"])
@pytest.mark.parametrize("writer", ["text", "checkpoint"])
def test_failed_atomic_write_keeps_the_old_file(tmp_path, monkeypatch, writer, fails):
    path = tmp_path / "out"
    path.write_bytes(b"old")
    ckpt = small_checkpoint()
    if fails == "write":
        mkstemp = tempfile.mkstemp

        def read_only_mkstemp(*args, **kwargs):  # every write fails, as on a full disk
            fd, name = mkstemp(*args, **kwargs)
            os.close(fd)
            return os.open(name, os.O_RDONLY), name

        monkeypatch.setattr(tempfile, "mkstemp", read_only_mkstemp)
    else:
        def refuse(src, dst):
            raise PermissionError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        if writer == "text":
            atomic_write_text(path, "new\n" * 10_000)
        else:
            ckpt_io.save_checkpoint(path, ckpt)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out"]


# -- commands ----------------------------------------------------------------


def test_gen_data_deterministic(tmp_path):
    a = tmp_path / "a.g"
    b = tmp_path / "b.g"
    run_cli("gen-data", "lobster", a, "--seed", 7)
    run_cli("gen-data", "lobster", b, "--seed", 7)
    assert a.read_text() == b.read_text()
    manifest = json.loads((tmp_path / "a.g.manifest").read_text())
    assert manifest["count"] == 100
    assert manifest["min_nodes"] >= 10 and manifest["max_nodes"] <= 100


def test_gen_data_community_count(tmp_path):
    out = tmp_path / "c.g"
    run_cli("gen-data", "community", out, "--seed", 1)
    manifest = json.loads((tmp_path / "c.g.manifest").read_text())
    assert manifest["count"] == 510


def test_gen_data_unknown_dataset_fails(tmp_path):
    proc = run_cli("gen-data", "nope", tmp_path / "x.g", check=False)
    assert proc.returncode != 0


def test_full_pipeline(tmp_path, tiny_data, tiny_cfg_file):
    ckpt = tmp_path / "model.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_file, "--out", ckpt)
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.train.g").exists()
    assert (tmp_path / "model.ckpt.test.g").exists()
    log = (tmp_path / "model.ckpt.log").read_text()
    assert "decoder,0," in log and "flow,0," in log
    assert "summary,decoder_final_train_nll," in log

    samples = tmp_path / "samples.g"
    run_cli("sample", ckpt, 4, "--out", samples)
    gs = load_graphs(samples)
    assert len(gs) == 4
    timing = json.loads((tmp_path / "samples.g.timing").read_text())
    assert timing["mean_seconds_per_graph"] > 0 and timing["peak_rss_mb"] > 0
    rows = timing["per_graph"]
    assert [r["n"] for r in rows] == [g.n for g in gs]
    assert all(r["flow_s"] > 0 and r["decoder_s"] > 0 for r in rows)
    assert sum(r["flow_s"] + r["decoder_s"] for r in rows) == pytest.approx(timing["total_seconds"], rel=1e-9)

    report = tmp_path / "report.txt"
    run_cli("eval", samples, tmp_path / "model.ckpt.test.g", "--out", report, "--validity")
    lines = report.read_text().splitlines()
    assert lines[:2] == ["statistic        score", "-" * 28]
    assert [line.split()[0] for line in lines[2:]] == [*STATISTICS, "validity"]
    assert not [name for name in os.listdir(tmp_path) if name.startswith("report.txt.")]


def test_sample_fixed_n_and_mode_override(tmp_path, tiny_data, tiny_cfg_file):
    ckpt = tmp_path / "model.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_file, "--out", ckpt)
    out = tmp_path / "ood.g"
    run_cli("sample", ckpt, 3, "--out", out, "--fixed-n", 25)
    assert all(g.n == 25 for g in load_graphs(out))
    out2 = tmp_path / "dec_only.g"
    run_cli("sample", ckpt, 3, "--out", out2, "--mode", "grad_d")
    assert json.loads((tmp_path / "dec_only.g.timing").read_text())["mode"] == "grad_d"


def test_sample_determinism(tmp_path, tiny_data, tiny_cfg_file):
    ckpt = tmp_path / "model.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_file, "--out", ckpt)
    a = tmp_path / "sa.g"
    b = tmp_path / "sb.g"
    run_cli("sample", ckpt, 5, "--out", a, "--seed", 11)
    run_cli("sample", ckpt, 5, "--out", b, "--seed", 11)
    assert a.read_text() == b.read_text()


def test_replay_log_matches_a_fresh_log_and_names_an_edited_row(tmp_path, tiny_data, tiny_cfg_file, capsys):
    ckpt = tmp_path / "r.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_file, "--out", ckpt)
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "replay_log.py")
    spec = importlib.util.spec_from_file_location("replay_log", script)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    log = tmp_path / "r.ckpt.log"
    args = [tiny_cfg_file, tiny_data, str(log), "--epochs", "2"]
    assert replay.main(args) == 0
    assert "decoder epochs 0..1 match" in capsys.readouterr().out

    lines = log.read_text().splitlines(keepends=True)
    assert lines[1].startswith("decoder,1,")
    nll = lines[1].rstrip().rsplit(",", 1)[1]
    digit = next(i for i in range(len(nll) - 1, -1, -1) if nll[i].isdigit())
    lines[1] = lines[1][: -len(nll) - 1] + nll[:digit] + str((int(nll[digit]) + 1) % 10) + nll[digit + 1 :] + "\n"
    log.write_text("".join(lines))
    assert replay.main(args) == 1
    err = capsys.readouterr().err
    assert f"{log}:2: the log has {lines[1].rstrip()!r}" in err

    log.write_text(lines[0])
    assert replay.main(args) == 1
    assert "has no row for decoder epoch 1" in capsys.readouterr().err


@pytest.mark.parametrize("only", [["lobstr"], [], ["lobster", "bogus"]])
def test_acceptance_driver_rejects_bad_stage_names(only, tmp_path):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_acceptance.py")
    results = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, script, "--results", str(results), "--only", *only],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "--only" in proc.stderr and "acceptance driver finished" not in proc.stdout
    assert not results.exists()


def test_train_grad_d_skips_flow(tmp_path, tiny_data):
    ckpt = tmp_path / "d.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_with(tmp_path, "mode = grad_d"), "--out", ckpt)
    back = ckpt_io.load_checkpoint(ckpt)
    assert back.flow is None
    out = tmp_path / "s.g"
    run_cli("sample", ckpt, 2, "--out", out)
    assert len(load_graphs(out)) == 2


def test_train_grad_r_triples_epochs(tmp_path, tiny_data):
    ckpt = tmp_path / "r.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_with(tmp_path, "mode = grad_r"), "--out", ckpt)
    log = (tmp_path / "r.ckpt.log").read_text()
    decoder_epochs = [int(line.split(",")[1]) for line in log.splitlines() if line.startswith("decoder,")]
    assert max(decoder_epochs) == 5  # 2 configured epochs * 3
    back = ckpt_io.load_checkpoint(ckpt)
    assert back.decoder_epochs_done == 6


def test_eval_self_is_zero(tmp_path, tiny_data):
    report = tmp_path / "self.txt"
    run_cli("eval", tiny_data, tiny_data, "--out", report)
    rows = [line.split() for line in report.read_text().splitlines()[2:]]
    assert [stat for stat, _ in rows] == list(STATISTICS)
    assert all(float(score) <= 1e-12 for _, score in rows)


def test_eval_has_no_bandwidth_option(tmp_path, tiny_data, capsys):
    # the MMD kernel bandwidth is fixed at 1
    with pytest.raises(SystemExit) as usage:
        cli.main(["eval", tiny_data, tiny_data, "--sigma", "1", "--out", str(tmp_path / "r.txt")])
    assert usage.value.code == 2 and "unrecognized arguments: --sigma" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_eval_empty_set_fails(tmp_path, tiny_data):
    empty = tmp_path / "empty.g"
    empty.write_text("")
    for pair in ((empty, tiny_data), (tiny_data, empty)):
        proc = run_cli("eval", *pair, "--out", tmp_path / "r.txt", check=False)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {empty}: no graphs\n"
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("raw", ["0", "-2", "two", ""])
def test_bad_worker_count_is_a_named_error(raw, tmp_path, tiny_data):
    env = cli_env(GRADGEN_WORKERS=raw)
    proc = subprocess.run(
        [sys.executable, "-m", "gradgen.cli", "eval", tiny_data, tiny_data, "--out", tmp_path / "r.txt"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: GRADGEN_WORKERS must be a positive integer, got {raw!r}\n"


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_ckpt")
    save_graphs(root / "data.g", sorted(gen_cycles(), key=lambda g: g.n)[:10])
    (root / "tiny.cfg").write_text(TINY_CFG)
    ckpt = root / "model.ckpt"
    run_cli("train", root / "data.g", "--config", root / "tiny.cfg", "--out", ckpt)
    return ckpt


@pytest.mark.parametrize(
    "args,message",
    [
        (["0"], "number of graphs must be at least 1, got 0"),
        (["2", "--fixed-n", "0"], "--fixed-n must be at least 1, got 0"),
        (["2", "--fixed-n", "-3"], "--fixed-n must be at least 1, got -3"),
    ],
    ids=["zero graphs", "fixed-n 0", "fixed-n -3"],
)
def test_sample_rejects_nonpositive_sizes(args, message, tiny_ckpt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    out = tmp_path / "s.g"
    assert cli.main(["sample", str(tiny_ckpt), *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "s.g.timing").exists()


def test_block_size_zero_is_rejected(tmp_path, capsys):
    # train and show-config read the same file; show-config cannot start a run
    cfg = tiny_cfg_with(tmp_path, "K = 0")
    assert cli.main(["show-config", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: config field 'K' must be positive\n"
    # no flag sets a config key: the file is a run's only source of settings
    for argv in (["show-config", "--block-size", "2"], ["train", "d.g", "--out", "m.ckpt", "--seed", "3"]):
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_train_on_one_graph_is_refused_before_any_file_is_written(tmp_path, tiny_cfg_file, capsys, monkeypatch):
    one = str(tmp_path / "one.g")
    save_graphs(one, gen_cycles()[:1])
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    message = f"{one}: 1 graph leaves the 80/20 split without a training graph"
    assert cli.main(["train", one, "--out", str(tmp_path / "one.ckpt"), "--config", tiny_cfg_file]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.g", "tiny.cfg"]
    # the log replay builds its split with the same function
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.training_split(load_config(tiny_cfg_file), one)


def test_readme_cli_block_lists_every_option():
    """The README's CLI synopsis names exactly the options each subcommand's
    parser accepts."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) for line in block.splitlines()}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert listed == accepted


def test_cli_reports_errors_on_stderr(tmp_path):
    proc = run_cli("sample", tmp_path / "missing.ckpt", 3, "--out", tmp_path / "x.g", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_config_mismatch_on_resume(tmp_path, tiny_data, tiny_cfg_file, capsys, monkeypatch):
    """A resume refused for another seed or for other data leaves the split,
    the checkpoint and the log as they were."""
    ckpt = tmp_path / "model.ckpt"
    run_cli("train", tiny_data, "--config", tiny_cfg_file, "--out", ckpt)
    files = [ckpt, *(tmp_path / f"model.ckpt.{ext}" for ext in ("train.g", "test.g", "log"))]
    before = [p.read_bytes() for p in files]
    other_data = tmp_path / "other.g"
    save_graphs(other_data, sorted(gen_cycles(), key=lambda g: g.n)[5:15])
    monkeypatch.setattr(cli.gc, "set_threshold", lambda *a: None)
    for data, cfg, message in [
        (tiny_data, tiny_cfg_with(tmp_path, "seed = 99"), "checkpoint config differs from requested config"),
        (str(other_data), tiny_cfg_file, "checkpoint was trained on different data"),
    ]:
        assert cli.main(["train", data, "--config", cfg, "--out", str(ckpt), "--resume"]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
        assert [p.read_bytes() for p in files] == before
