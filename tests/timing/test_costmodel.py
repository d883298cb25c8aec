"""Tests for :mod:`repro.timing.costmodel`."""

import pytest

from repro.exceptions import ParameterError
from repro.timing.costmodel import (
    HardwareProfile,
    Op,
    calibrate_profile,
    profiles,
)


class TestHardwareProfile:
    def test_all_ops_have_costs(self):
        profile = profiles.pentium3_2ghz
        for op in Op:
            assert profile.cost(op) > 0

    def test_missing_costs_rejected(self):
        with pytest.raises(ParameterError):
            HardwareProfile(name="bad", base_costs={Op.ENCRYPT: 1.0})

    def test_scale_factors_validated(self):
        with pytest.raises(ParameterError):
            profiles.pentium3_2ghz.scaled(0)

    def test_paper_fit_encryption(self):
        # 100,000 encryptions at 512 bits on the P-III: ~18 minutes
        # (the dominant share of the paper's ~20-minute total).
        total = 100_000 * profiles.pentium3_2ghz.cost(Op.ENCRYPT, 512)
        assert 15 * 60 < total < 20 * 60

    def test_server_step_much_cheaper_than_encryption(self):
        profile = profiles.pentium3_2ghz
        ratio = profile.cost(Op.ENCRYPT) / profile.cost(Op.WEIGHTED_STEP)
        # A 512-bit exponent vs a 32-bit exponent: roughly 16x.
        assert 8 < ratio < 32

    def test_decrypt_comparable_to_encrypt(self):
        profile = profiles.pentium3_2ghz
        ratio = profile.cost(Op.DECRYPT) / profile.cost(Op.ENCRYPT)
        assert 0.5 < ratio < 2.0

    def test_machine_scaling(self):
        fast = profiles.pentium3_2ghz
        assert profiles.pentium_1ghz.cost(Op.ENCRYPT) == pytest.approx(
            2 * fast.cost(Op.ENCRYPT)
        )
        assert profiles.ultrasparc_500mhz.cost(Op.ENCRYPT) == pytest.approx(
            4 * fast.cost(Op.ENCRYPT)
        )

    def test_java_factor(self):
        profile = profiles.pentium3_2ghz
        java = profile.java()
        assert java.cost(Op.ENCRYPT) == pytest.approx(5 * profile.cost(Op.ENCRYPT))
        assert java.name.endswith("-java")

    def test_key_size_scaling_laws(self):
        profile = profiles.pentium3_2ghz
        # Encryption is cubic in key size...
        assert profile.cost(Op.ENCRYPT, 1024) == pytest.approx(
            8 * profile.cost(Op.ENCRYPT, 512)
        )
        # ... the server's fixed-exponent step quadratic ...
        assert profile.cost(Op.WEIGHTED_STEP, 1024) == pytest.approx(
            4 * profile.cost(Op.WEIGHTED_STEP, 512)
        )
        # ... and bookkeeping size-independent.
        assert profile.cost(Op.PLAIN_ADD, 1024) == profile.cost(Op.PLAIN_ADD, 512)

    def test_invalid_key_bits(self):
        with pytest.raises(ParameterError):
            profiles.pentium3_2ghz.cost(Op.ENCRYPT, 0)

    def test_preset_lookup(self):
        assert profiles.by_name("pentium3-2ghz") is profiles.pentium3_2ghz
        with pytest.raises(ParameterError):
            profiles.by_name("cray-1")


class TestCalibration:
    def test_calibrated_profile_is_usable(self):
        profile = calibrate_profile(key_bits=64, iterations=3)
        for op in Op:
            assert profile.cost(op) > 0

    def test_calibrated_ratios_sane(self):
        # The model's structural claim: the server's 32-bit-exponent step
        # is much cheaper than a full encryption.  Real measurements of
        # the pure-Python cryptosystem should agree on the direction.
        profile = calibrate_profile(key_bits=256, iterations=5)
        assert profile.cost(Op.WEIGHTED_STEP) < profile.cost(Op.ENCRYPT)
        assert profile.cost(Op.CIPHER_ADD) < profile.cost(Op.WEIGHTED_STEP)

    @pytest.mark.parametrize("use_kernels", [True, False])
    def test_encrypt_timed_on_the_path_the_client_runs(
        self, monkeypatch, use_kernels
    ):
        """With kernels, Op.ENCRYPT times one batch of the key owner's
        encryption over every iteration, as ClientSession encrypts a
        chunk; without, the textbook public-key one."""
        from repro.crypto.paillier import PaillierPrivateKey

        calls = []
        real = PaillierPrivateKey.encrypt_raw_crt_many

        def counting(self, plaintexts, *args, **kwargs):
            calls.append(len(plaintexts))
            return real(self, plaintexts, *args, **kwargs)

        monkeypatch.setattr(PaillierPrivateKey, "encrypt_raw_crt_many", counting)
        calibrate_profile(key_bits=64, iterations=3, use_kernels=use_kernels)
        assert calls == ([3] if use_kernels else [])

    def test_encrypt_timed_loop_builds_no_table(self, monkeypatch):
        """The sampler tables are built before Op.ENCRYPT is timed: no
        timed encryption pays the one-time build."""
        import repro.crypto.paillier as paillier

        builds = []
        real_table = paillier.TeichmullerTable
        real_encrypt = paillier.PaillierPrivateKey.encrypt_raw_crt_many

        def counting_table(*args, **kwargs):
            builds.append(args)
            return real_table(*args, **kwargs)

        during = []

        def encrypt(self, *args, **kwargs):
            before = len(builds)
            result = real_encrypt(self, *args, **kwargs)
            during.append(len(builds) - before)
            return result

        monkeypatch.setattr(paillier, "TeichmullerTable", counting_table)
        monkeypatch.setattr(
            paillier.PaillierPrivateKey, "encrypt_raw_crt_many", encrypt
        )
        calibrate_profile(key_bits=64, iterations=3, use_kernels=True)
        assert len(builds) == 2
        assert during == [0]

    def test_fold_timed_over_a_full_query_of_block_programs(
        self, monkeypatch
    ):
        """With kernels, Op.WEIGHTED_STEP runs the fold programs of a
        query's worth of weights, block by block as ServerSession does,
        and the compile stays outside the timed loop."""
        import repro.crypto.multiexp as multiexp
        from repro.timing.costmodel import _FOLD_ELEMENTS

        events = []
        real_init = multiexp.FoldProgram.__init__
        real_run = multiexp.FoldProgram.run

        def clock():
            events.append("clock")
            return float(len(events))

        def compiling(self, exponents):
            events.append("compile")
            real_init(self, exponents)

        def running(self, bases, modulus):
            events.append(len(bases))
            return real_run(self, bases, modulus)

        monkeypatch.setattr(multiexp.FoldProgram, "__init__", compiling)
        monkeypatch.setattr(multiexp.FoldProgram, "run", running)
        calibrate_profile(key_bits=64, iterations=3, clock=clock)
        blocks = len(multiexp.fold_blocks(_FOLD_ELEMENTS))
        first = events.index("compile")
        assert events[first : first + blocks] == ["compile"] * blocks
        start = events.index("clock", first)
        runs = events[start + 1 : start + 1 + blocks]
        assert sum(runs) == _FOLD_ELEMENTS and len(runs) == blocks
        assert events[start + 1 + blocks] == "clock"

    def test_rejects_zero_iterations(self):
        from repro.exceptions import CalibrationError

        with pytest.raises(CalibrationError):
            calibrate_profile(iterations=0)
