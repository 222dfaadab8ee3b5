"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from tea import autodiff as ad
from tea import evaluation, training
from tea.cli import main
from tea.params import load_checkpoint

from corpus import cycle_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_corpus")
    rows, pairs = cycle_corpus(n_users=10, n_items=20, length=16, stride=2)
    return write_corpus(str(tmp), rows, pairs)


@pytest.fixture(scope="module")
def data_dir(corpus_files, tmp_path_factory):
    inter, social = corpus_files
    out = str(tmp_path_factory.mktemp("cli_data"))
    code = main(["prepare", "--interactions", inter, "--social", social,
                 "--out", out, "--ls", "16", "--ln", "5", "--seed", "0"])
    assert code == 0
    return out


_FAST = ["--d", "4", "--ns", "5", "--max-epochs", "2", "--patience", "5",
         "--batch-size", "32", "--p-drop", "0.0"]


class TestPrepare:
    def test_artifacts_and_stats(self, data_dir):
        assert os.path.exists(os.path.join(data_dir, "dataset.json"))
        assert os.path.exists(os.path.join(data_dir, "user_ids.tsv"))
        assert os.path.exists(os.path.join(data_dir, "item_ids.tsv"))
        stats = json.load(open(os.path.join(data_dir, "stats.json")))
        for key in ("users", "items", "interactions", "social_links",
                    "density", "social_density", "config"):
            assert key in stats
        assert stats["users"] == 10 and stats["items"] == 20

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["prepare", "--interactions", "/no/such/file.tsv",
                     "--social", "/no/such/social.tsv",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "/no/such/file.tsv" in capsys.readouterr().err

    def test_min_actions_one_drops_users_below_three_events(self, corpus_files,
                                                             tmp_path):
        inter, social = corpus_files
        sparse = tmp_path / "sparse.tsv"
        sparse.write_text(open(inter).read() + "x1\tv0\t1600000000\n"
                          "x2\tv1\t1600000000\nx2\tv2\t1600000100\n")
        out = tmp_path / "o"
        code = main(["prepare", "--interactions", str(sparse), "--social", social,
                     "--out", str(out), "--min-actions", "1", "--ls", "16"])
        assert code == 0
        assert json.load(open(out / "stats.json"))["users"] == 10

    def test_empty_output_exit_3(self, corpus_files, tmp_path):
        inter, social = corpus_files
        code = main(["prepare", "--interactions", inter, "--social", social,
                     "--out", str(tmp_path / "o"), "--min-actions", "1000000"])
        assert code == 3


class TestTrain:
    def test_writes_checkpoint_and_curve(self, data_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["train", "--data", data_dir, "--variant", "tea-s",
                     "--out", out, "--seed", "3"] + _FAST)
        assert code == 0
        assert "walk aggregation: enabled" in capsys.readouterr().out
        curve = open(os.path.join(out, "curve.csv")).read().splitlines()
        header_rows = [l for l in curve if not l.startswith("#")]
        assert header_rows[0] == "epoch,train_loss,val_hr10,val_ndcg10"
        assert len(header_rows) == 1 + 2  # one row per epoch
        params, config, _ = load_checkpoint(os.path.join(out, "checkpoint.tea"))
        assert config["seed"] == 3 and config["variant"] == "tea-s"

    def test_reduced_variant_logs_disabled_walks(self, data_dir, tmp_path, capsys):
        out = str(tmp_path / "run_rs")
        code = main(["train", "--data", data_dir, "--variant", "tea-rs",
                     "--out", out, "--seed", "0"] + _FAST)
        assert code == 0
        assert "walk aggregation: disabled" in capsys.readouterr().out

    def test_same_seed_byte_identical_curves(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["train", "--data", data_dir, "--variant", "tea-s",
                         "--out", out, "--seed", "11"] + _FAST) == 0
            outs.append(open(os.path.join(out, "curve.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")] + _FAST) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_exit_4(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", data_dir, "--variant", "tea-s",
                     "--out", str(tmp_path / "o"), "--lr", "1e150",
                     "--clip-norm", "0", "--gamma", "0"] + _FAST)
        assert code == 4
        assert "non-finite" in capsys.readouterr().err


    def test_nan_score_exit_4(self, data_dir, tmp_path, capsys, monkeypatch):
        def nan_scores(*args, **kwargs):
            return ad.Tensor(np.full(real(*args, **kwargs).data.shape, np.nan))

        real = training.score_user_steps
        monkeypatch.setattr(training, "score_user_steps", nan_scores)
        code = main(["train", "--data", data_dir, "--variant", "tea-s",
                     "--out", str(tmp_path / "o")] + _FAST)
        assert code == 4
        assert "non-finite" in capsys.readouterr().err


def _split_checkpoint(raw: bytes):
    """(magic, header, per-tensor blobs) of a checkpoint file's bytes."""
    magic, rest = raw.split(b"\n", 1)
    (hlen,) = struct.unpack("<Q", rest[:8])
    header = json.loads(rest[8:8 + hlen])
    blobs, offset = [], 8 + hlen
    for spec in header["tensors"]:
        size = 8 * int(np.prod(spec["shape"]))
        blobs.append(rest[offset:offset + size])
        offset += size
    return magic, header, blobs


def _drop_tensor(header, blobs):
    i = [spec["name"] for spec in header["tensors"]].index("f.w_2")
    del header["tensors"][i], blobs[i]


# Header edits that each leave a checkpoint unusable; "undecodable" prefixes
# the header with a byte that is not UTF-8.
_HEADER_EDITS = {
    "missing_tensor": _drop_tensor,
    "missing_n_users": lambda header, blobs: header.pop("n_users"),
    "d_not_int": lambda header, blobs: header.update(d="four"),
    "unknown_variant": lambda header, blobs: header.update(variant="tea-x"),
    "format": lambda header, blobs: header.update(format="TEA-CKPT-0"),
    "shape": lambda header, blobs: header["tensors"][0]["shape"].append(1),
    "unexpected_tensor": lambda header, blobs: header["tensors"][1].update(
        name="emb.bogus"),
    "undecodable": None,
}


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_train"))
    assert main(["train", "--data", data_dir, "--variant", "tea-s",
                 "--out", out, "--seed", "1"] + _FAST) == 0
    return out


class TestEval:
    def test_report_has_all_ks(self, data_dir, trained_dir, tmp_path):
        out = str(tmp_path / "ev")
        code = main(["eval", "--data", data_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.tea"),
                     "--split", "test", "--out", out, "--seed", "5"])
        assert code == 0
        report = json.load(open(os.path.join(out, "report_test.json")))
        assert set(report["hr"]) == {"5", "10", "20"}
        assert set(report["ndcg"]) == {"5", "10", "20"}
        ranks = open(os.path.join(out, "ranks_test.csv")).read().splitlines()
        assert ranks[0] == "user_id,rank" and len(ranks) == 11

    def test_custom_k_only(self, data_dir, trained_dir, tmp_path):
        out = str(tmp_path / "ev7")
        code = main(["eval", "--data", data_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.tea"),
                     "--k", "7", "--out", out])
        assert code == 0
        report = json.load(open(os.path.join(out, "report_test.json")))
        assert set(report["hr"]) == {"7"}

    def test_corrupted_checkpoint_exit_5(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tea"
        bad.write_bytes(b"garbage\n" + b"\x00" * 16)
        code = main(["eval", "--data", data_dir, "--checkpoint", str(bad)])
        assert code == 5
        assert "TEA-CKPT-1" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["short_blob", "short_header", "trailing"])
    def test_truncated_or_padded_checkpoint_exit_5(self, data_dir, trained_dir,
                                                   tmp_path, capsys, cut):
        raw = open(os.path.join(trained_dir, "checkpoint.tea"), "rb").read()
        edited = {"short_blob": raw[:-100], "short_header": raw[:20],
                  "trailing": raw + b"\x00\x00"}[cut]
        bad = tmp_path / "edited.tea"
        bad.write_bytes(edited)
        code = main(["eval", "--data", data_dir, "--checkpoint", str(bad)])
        assert code == 5
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(_HEADER_EDITS))
    def test_bad_checkpoint_header_exit_5(self, data_dir, trained_dir, tmp_path,
                                          capsys, case):
        raw = open(os.path.join(trained_dir, "checkpoint.tea"), "rb").read()
        magic, header, blobs = _split_checkpoint(raw)
        if case == "undecodable":
            header_bytes = b"\xff" + json.dumps(header).encode()
        else:
            _HEADER_EDITS[case](header, blobs)
            header_bytes = json.dumps(header).encode()
        bad = tmp_path / "edited.tea"
        bad.write_bytes(magic + b"\n" + struct.pack("<Q", len(header_bytes))
                        + header_bytes + b"".join(blobs))
        code = main(["eval", "--data", data_dir, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "ev")])
        assert code == 5
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["seq_items", "buckets", "item_ids"])
    def test_corrupted_dataset_exit_2(self, data_dir, trained_dir, tmp_path,
                                      capsys, field):
        snap = tmp_path / "snap"
        shutil.copytree(data_dir, snap)
        if field == "item_ids":
            path = snap / "item_ids.tsv"
            rows = path.read_text().splitlines(keepends=True)
            path.write_text(rows[0] + "".join(rows))  # dense id 0 twice
        else:
            path = snap / "dataset.json"
            payload = json.loads(path.read_text())
            user = payload["users"][0]
            if field == "seq_items":
                user["seq_items"][0] = 10**6
            else:
                user["buckets"] = user["buckets"][:2]
            path.write_text(json.dumps(payload))
        code = main(["eval", "--data", str(snap), "--checkpoint",
                     os.path.join(trained_dir, "checkpoint.tea"),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_nan_score_exit_4(self, data_dir, trained_dir, tmp_path, capsys,
                              monkeypatch):
        def nan_scores(*args, **kwargs):
            return ad.Tensor(np.full(real(*args, **kwargs).data.shape, np.nan))

        real = evaluation.score_user_steps
        monkeypatch.setattr(evaluation, "score_user_steps", nan_scores)
        code = main(["eval", "--data", data_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.tea"),
                     "--split", "val", "--out", str(tmp_path / "ev")])
        assert code == 4
        err = capsys.readouterr().err
        assert "non-finite" in err and "val ranking of user 0" in err

    def test_json_identical_modulo_wall_clock(self, data_dir, trained_dir, tmp_path):
        reports = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(["eval", "--data", data_dir,
                         "--checkpoint", os.path.join(trained_dir, "checkpoint.tea"),
                         "--out", out, "--seed", "9"]) == 0
            rep = json.load(open(os.path.join(out, "report_test.json")))
            rep.pop("wall_clock_seconds")
            reports.append(rep)
        assert reports[0] == reports[1]


class TestAblate:
    def test_grid_table(self, data_dir, tmp_path):
        out = str(tmp_path / "ab")
        code = main(["ablate", "--data", data_dir, "--out", out,
                     "--variants", "tea-s,tea-rs", "--seeds", "0,1"] + _FAST)
        assert code == 0
        lines = [l for l in open(os.path.join(out, "ablate.csv")).read().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == ("variant,seed,HR@5,NDCG@5,HR@10,NDCG@10,HR@20,NDCG@20")
        # 4 run rows + 2 variants x (mean, std)
        assert len(lines) == 1 + 4 + 4
        assert any(l.startswith("tea-s,mean,") for l in lines)
        assert any(l.startswith("tea-rs,std,") for l in lines)

    def test_single_run_std_zero(self, data_dir, tmp_path):
        out = str(tmp_path / "ab1")
        code = main(["ablate", "--data", data_dir, "--out", out,
                     "--variants", "tea-rs", "--seeds", "4"] + _FAST)
        assert code == 0
        lines = [l for l in open(os.path.join(out, "ablate.csv")).read().splitlines()
                 if l.startswith("tea-rs,std,")]
        assert lines[0] == "tea-rs,std," + ",".join(["0.000000"] * 6)


class TestConfigPrecedence:
    def test_file_env_flag_order(self, data_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nd = 4\nn_s = 5\nmax_epochs = 0\n"
                       "batch_size = 32\np_drop = 0.0\n")

        def run(args, out_name):
            out = str(tmp_path / out_name)
            assert main(["train", "--data", data_dir, "--variant", "tea-s",
                         "--out", out, "--config", str(cfg)] + args) == 0
            _, config, _ = load_checkpoint(os.path.join(out, "checkpoint.tea"))
            return config["seed"]

        monkeypatch.delenv("TEA_SEED", raising=False)
        assert run([], "o1") == 5                      # file only
        monkeypatch.setenv("TEA_SEED", "7")
        assert run([], "o2") == 7                      # env beats file
        assert run(["--seed", "9"], "o3") == 9         # flag beats env
