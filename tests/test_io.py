"""File format round-trips, channel presets, and loader error reporting."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tworelay import ValidationError, channel_preset, cli, load_channel, load_law
from tworelay import io as tio
from tworelay.prob import (
    Alphabet,
    T1Law,
    T2Law,
    random_channel,
    random_t1_law,
    random_t2_law,
    uniform_law,
    uniform_t1_law,
)

T2_SIZES = {"V1": 2, "V2": 2, "Yh1": 2, "Yh2": 2}


def noisy_channel(seed=5):
    return random_channel(np.random.default_rng(seed))


class TestDumps:
    def test_golden_format(self):
        # sorted keys, two-space indent, trailing newline
        got = tio.dumps({"b": 1, "a": [1.5]})
        assert got == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'

    def test_round_trips_through_json(self):
        payload = tio.channel_to_dict(noisy_channel())
        assert json.loads(tio.dumps(payload)) == payload


class TestCondJointRoundTrip:
    def test_cond_exact(self):
        pmf = noisy_channel().transition
        back = tio.cond_from_dict(json.loads(tio.dumps(tio.cond_to_dict(pmf))), "here")
        assert back.given == pmf.given
        assert back.target == pmf.target
        # repr-based JSON floats parse back to the identical doubles
        assert np.array_equal(back.mass, pmf.mass)

    def test_joint_exact(self):
        law = random_t1_law(np.random.default_rng(3), noisy_channel())
        pmf = law.px1
        back = tio.joint_from_dict(json.loads(tio.dumps(tio.joint_to_dict(pmf))), "here")
        assert back.axes == pmf.axes
        assert np.array_equal(back.mass, pmf.mass)

    def test_malformed_axes_named(self):
        with pytest.raises(ValidationError, match="spot: malformed axis list"):
            tio.cond_from_dict({"given": 3, "target": [], "data": []}, "spot")

    def test_missing_field_named(self):
        with pytest.raises(ValidationError, match="spot: missing field 'data'"):
            tio.joint_from_dict({"axes": [["X1", 2]]}, "spot")

    def test_bad_mass_wrapped_with_location(self):
        for data, pattern in (
            ([0.7, 0.7], "^spot: "),
            ([0.5, "x"], "^spot.data: could not convert string to float"),
            ([[0.5], [0.25, 0.25]], "^spot.data: "),
        ):
            entry = {"axes": [["X1", 2]], "data": data}
            with pytest.raises(ValidationError, match=pattern):
                tio.joint_from_dict(entry, "spot")


class TestChannelFiles:
    def test_round_trip_exact(self):
        channel = noisy_channel()
        payload = json.loads(tio.dumps(tio.channel_to_dict(channel)))
        back = tio.channel_from_dict(payload)
        assert back.transition.given == channel.transition.given
        assert back.transition.target == channel.transition.target
        assert np.array_equal(back.transition.mass, channel.transition.mass)

    def test_round_trip_nonuniform_sizes(self):
        channel = random_channel(np.random.default_rng(9), {"X0": 3, "Y1": 4})
        back = tio.channel_from_dict(tio.channel_to_dict(channel))
        assert back.alphabet("X0").size == 3
        assert back.alphabet("Y1").size == 4
        assert np.array_equal(back.transition.mass, channel.transition.mass)

    def test_version_checked(self):
        payload = tio.channel_to_dict(noisy_channel())
        payload["format_version"] = 2
        with pytest.raises(ValidationError, match="channel: format_version 2, expected 1"):
            tio.channel_from_dict(payload)
        del payload["format_version"]
        with pytest.raises(ValidationError, match="channel: missing field 'format_version'"):
            tio.channel_from_dict(payload)

    def test_missing_size_entry_named(self):
        payload = tio.channel_to_dict(noisy_channel())
        del payload["sizes"]["Y2"]
        with pytest.raises(ValidationError, match="channel: sizes is missing 'Y2'"):
            tio.channel_from_dict(payload)
        for size in ("two", None, [2]):
            payload["sizes"]["Y2"] = size
            with pytest.raises(ValidationError, match="^channel.sizes.Y2: "):
                tio.channel_from_dict(payload)
        payload["sizes"] = 5
        with pytest.raises(ValidationError, match="^channel.sizes: expected an object"):
            tio.channel_from_dict(payload)

    def test_bad_transition_wrapped(self):
        payload = tio.channel_to_dict(noisy_channel())
        payload["transition"] = np.zeros((2, 2, 2, 2, 2, 2)).tolist()
        with pytest.raises(ValidationError, match="^channel.transition: "):
            tio.channel_from_dict(payload)


class TestPresets:
    def test_identity_direct_shape(self):
        channel = channel_preset("identity-direct")
        t = channel.transition
        assert [a.size for a in t.given] == [2, 2, 2]
        assert [a.size for a in t.target] == [2, 1, 1]
        mass = t.mass
        for a in range(2):
            assert np.all(mass[a, :, :, a, 0, 0] == 1.0)
            assert np.all(mass[a, :, :, 1 - a, 0, 0] == 0.0)

    def test_all_noise_uniform(self):
        mass = channel_preset("all-noise").transition.mass
        assert mass.shape == (2, 2, 2, 2, 2, 2)
        assert np.all(mass == 1.0 / 8.0)

    def test_symmetric_links_default_flip(self):
        mass = channel_preset("binary-symmetric-links").transition.mass
        assert mass[0, 0, 0, 0, 0, 0] == 0.9 * 0.9 * 0.9
        assert mass[1, 1, 1, 0, 0, 0] == 0.1 * 0.1 * 0.1
        assert mass[0, 1, 0, 0, 1, 0] == 0.9 * 0.1 * 0.9
        # relay inputs never matter
        assert np.array_equal(mass[:, 0, 0], mass[:, 1, 1])

    def test_symmetric_links_per_output_crossover(self):
        mass = channel_preset(
            "binary-symmetric-links", crossover={"Y0": 0.25, "Y2": 0.0}
        ).transition.mass
        assert mass[0, 0, 0, 1, 0, 0] == 0.25 * 0.9 * 1.0
        # Y2 copies the input exactly when its flip probability is zero
        assert np.all(mass[0, :, :, :, :, 1] == 0.0)
        assert np.all(mass[1, :, :, :, :, 0] == 0.0)

    def test_rows_normalized(self):
        for name in ("identity-direct", "all-noise", "binary-symmetric-links"):
            t = channel_preset(name).transition
            sums = t.mass.sum(axis=(3, 4, 5))
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_crossover_range_checked(self):
        with pytest.raises(ValidationError, match="crossover for Y1 must be in"):
            channel_preset("binary-symmetric-links", crossover={"Y1": 0.6})
        with pytest.raises(ValidationError, match="crossover for Y0 must be in"):
            channel_preset("binary-symmetric-links", crossover={"Y0": -0.01})
        with pytest.raises(ValidationError, match="^crossover: "):
            channel_preset("binary-symmetric-links", crossover=[1, 2])
        with pytest.raises(ValidationError, match="^crossover for Y2: "):
            channel_preset("binary-symmetric-links", crossover={"Y2": [0.1]})
        payload = {"format_version": 1, "kind": "channel",
                   "preset": "binary-symmetric-links", "crossover": [1, 2]}
        with pytest.raises(ValidationError, match="^crossover: "):
            tio.channel_from_dict(payload)

    def test_unknown_crossover_keys(self):
        with pytest.raises(ValidationError, match="unknown crossover keys \\['Yh1'\\]"):
            channel_preset("binary-symmetric-links", crossover={"Yh1": 0.1})

    def test_stray_options_rejected(self):
        with pytest.raises(ValidationError, match="identity-direct takes no options"):
            channel_preset("identity-direct", crossover={})
        with pytest.raises(ValidationError, match="not understood"):
            channel_preset("binary-symmetric-links", flip=0.2)

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown channel preset 'erasure'"):
            channel_preset("erasure")

    def test_dict_dispatch(self):
        """A file may name a preset instead of spelling out the tensor."""
        payload = {
            "format_version": 1,
            "kind": "channel",
            "preset": "binary-symmetric-links",
            "crossover": {"Y0": 0.25},
        }
        direct = channel_preset("binary-symmetric-links", crossover={"Y0": 0.25})
        via_dict = tio.channel_from_dict(payload)
        assert np.array_equal(via_dict.transition.mass, direct.transition.mass)

    def test_dict_dispatch_rejects_stray_options(self):
        payload = {"format_version": 1, "kind": "channel",
                   "preset": "identity-direct", "extra": 1}
        with pytest.raises(ValidationError, match="identity-direct takes no options"):
            tio.channel_from_dict(payload)


class TestLawFiles:
    def test_t1_round_trip_exact(self):
        law = random_t1_law(np.random.default_rng(11), noisy_channel())
        payload = json.loads(tio.dumps(tio.law_to_dict(law)))
        back = tio.law_from_dict(payload)
        assert isinstance(back, T1Law)
        for name in (f.name for f in dataclasses.fields(law)):
            assert np.array_equal(getattr(back, name).mass, getattr(law, name).mass), name

    def test_t2_round_trip_exact(self):
        law = random_t2_law(np.random.default_rng(12), noisy_channel(), v1_size=3)
        back = tio.law_from_dict(tio.law_to_dict(law))
        assert isinstance(back, T2Law)
        assert back.pv1_given_x1.target[0].size == 3
        for name in (f.name for f in dataclasses.fields(law)):
            assert np.array_equal(getattr(back, name).mass, getattr(law, name).mass), name

    def test_component_kinds_distinguished(self):
        # marginals carry "axes", conditionals carry "given"/"target"
        payload = tio.law_to_dict(uniform_t1_law(channel_preset("all-noise")))
        components = payload["components"]
        assert "axes" in components["px1"]
        assert "given" in components["px0_given_x1x2"]
        assert payload["kind"] == "law"
        assert payload["theorem"] == "t1"

    def test_theorem_tag_checked(self):
        payload = tio.law_to_dict(uniform_t1_law(channel_preset("all-noise")))
        payload["theorem"] = "t3"
        with pytest.raises(ValidationError, match="law: unknown theorem tag 't3'"):
            tio.law_from_dict(payload)

    def test_missing_component_named(self):
        payload = tio.law_to_dict(uniform_t1_law(channel_preset("all-noise")))
        del payload["components"]["px1"]
        with pytest.raises(ValidationError, match="law: components is missing 'px1'"):
            tio.law_from_dict(payload)
        payload["components"]["px1"] = 3
        with pytest.raises(ValidationError, match="^law.components.px1: expected an object"):
            tio.law_from_dict(payload)
        payload["components"] = 5
        with pytest.raises(ValidationError, match="^law.components: expected an object"):
            tio.law_from_dict(payload)

    def test_bad_component_carries_path(self):
        payload = tio.law_to_dict(uniform_law(T2Law, channel_preset("all-noise"), T2_SIZES))
        payload["components"]["pyh2_given_x2v2y2"]["data"] = [[0.0]]
        with pytest.raises(ValidationError, match="^law.components.pyh2_given_x2v2y2: "):
            tio.law_from_dict(payload)
        payload["components"]["pyh2_given_x2v2y2"]["data"] = [0.5, "x"]
        with pytest.raises(ValidationError, match="^law.components.pyh2_given_x2v2y2.data: "):
            tio.law_from_dict(payload)

    def test_not_a_law(self):
        with pytest.raises(ValidationError, match="not a law: dict"):
            tio.law_to_dict({})


class TestLoading:
    def test_channel_file(self, tmp_path):
        channel = noisy_channel()
        path = tmp_path / "chan.json"
        path.write_text(tio.dumps(tio.channel_to_dict(channel)))
        back = load_channel(str(path))
        assert np.array_equal(back.transition.mass, channel.transition.mass)

    def test_law_file_infers_theorem(self, tmp_path):
        for law in (uniform_t1_law(channel_preset("all-noise")),
                    uniform_law(T2Law, channel_preset("all-noise"), T2_SIZES)):
            path = tmp_path / "law.json"
            path.write_text(tio.dumps(tio.law_to_dict(law)))
            assert type(load_law(str(path))) is type(law)

    def test_truncated_file_names_path(self, tmp_path):
        path = tmp_path / "chan.json"
        text = tio.dumps(tio.channel_to_dict(noisy_channel()))
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValidationError) as excinfo:
            load_channel(str(path))
        message = str(excinfo.value)
        assert message.startswith(f"channel file {path}: invalid JSON")

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValidationError, match="law file .*absent.json"):
            load_law(str(path))

    @pytest.mark.parametrize("kind, size, where", [
        ("law", 2.5, "law.components.px1"),  # int() would read size 2
        ("channel", True, "channel.sizes.Y1"),  # int() would read size 1
    ])
    def test_non_integer_size_exits_2(self, kind, size, where, tmp_path, capsys):
        channel = channel_preset("identity-direct")  # Y1 has one symbol
        chan = tio.channel_to_dict(channel)
        law = tio.law_to_dict(uniform_t1_law(channel))  # px1 over two symbols
        if kind == "law":
            law["components"]["px1"]["axes"] = [["X1", size]]
        else:
            chan["sizes"]["Y1"] = size
        paths = {}
        for name, payload in (("channel", chan), ("law", law)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(tio.dumps(payload))
        with pytest.raises(ValidationError, match=f"^{where}: "):
            (load_law if kind == "law" else load_channel)(str(paths[kind]))
        code = cli.main(["eval", "--channel", str(paths["channel"]),
                         "--law", str(paths["law"]), "--theorem", "t1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("version", [True, 1.0])
    @pytest.mark.parametrize("kind", ["channel", "law"])
    def test_non_integer_format_version_exits_2(self, kind, version, tmp_path, capsys):
        # True == 1 and 1.0 == 1, so only a type check refuses them
        channel = channel_preset("identity-direct")
        payloads = {"channel": tio.channel_to_dict(channel),
                    "law": tio.law_to_dict(uniform_t1_law(channel))}
        payloads[kind]["format_version"] = version
        paths = {}
        for name, payload in payloads.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(tio.dumps(payload))
        code = cli.main(["eval", "--channel", str(paths["channel"]),
                         "--law", str(paths["law"]), "--theorem", "t1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind}: format_version {version!r}, expected 1")

    @pytest.mark.parametrize("kind, where, key", [
        ("law", "law", "extra_top"),
        ("law", "law.components.px1", "labelz"),  # inside a component
        ("channel", "channel", "extra_top"),
    ])
    def test_unknown_key_exits_2(self, kind, where, key, tmp_path, capsys):
        channel = channel_preset("identity-direct")
        payloads = {"channel": tio.channel_to_dict(channel),
                    "law": tio.law_to_dict(uniform_t1_law(channel))}
        target = payloads["law"]["components"]["px1"] if "px1" in where else payloads[kind]
        target[key] = target.get("axes", 1)
        paths = {}
        for name, payload in payloads.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(tio.dumps(payload))
        with pytest.raises(ValidationError, match=f"^{where}: unknown keys '{key}'$"):
            (load_law if kind == "law" else load_channel)(str(paths[kind]))
        code = cli.main(["eval", "--channel", str(paths["channel"]),
                         "--law", str(paths["law"]), "--theorem", "t1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {where}: unknown keys '{key}'\n"

    def test_readme_examples_load(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            payload = json.loads(block)
            loader = {"channel": tio.channel_from_dict, "law": tio.law_from_dict}[payload["kind"]]
            loader(payload)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValidationError, match="top level must be an object"):
            load_channel(str(path))
