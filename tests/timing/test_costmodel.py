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
        """With kernels, Op.ENCRYPT times the key owner's encryption,
        which ClientSession runs; without, the textbook public-key one."""
        from repro.crypto.paillier import PaillierPrivateKey

        calls = []
        real = PaillierPrivateKey.encrypt_raw_crt

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PaillierPrivateKey, "encrypt_raw_crt", counting)
        calibrate_profile(key_bits=64, iterations=3, use_kernels=use_kernels)
        assert len(calls) == (3 if use_kernels else 0)

    def test_rejects_zero_iterations(self):
        from repro.exceptions import CalibrationError

        with pytest.raises(CalibrationError):
            calibrate_profile(iterations=0)
