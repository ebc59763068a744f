"""Golden outputs: the sha256 of the CLI's stdout for each subcommand and format.

The digests were taken from the package before its kernels and its CLI
emitter were merged, and pin every byte of that output.  The ``block_*``
and ``nonfinite`` cases were added, with digests from the same emitter,
before the emitter began writing its tables block by block: their sweeps
cross several 4096-row blocks, and the nonfinite one prints ``NaN`` and
``Infinity`` cells.  ``sweep`` prints
``np.exp`` of its grid, and its log grid goes through ``np.geomspace``;
numpy takes an AVX-512 path for both where the CPU has one, and that path
differs from libm in the last bit at a few percent of the points.  Each
sweep case therefore lists two digests: first the AVX-512 output, then the
output with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``.
"""

import hashlib

import numpy as np
import pytest

from chebbound.cli import main

SWEEP = ["sweep", "--n", "3", "--x-min=-40", "--x-max=-1.01", "--points", "2000"]
BLOCKS = ["sweep", "--n", "3", "--x-min=-40", "--x-max=-1.01", "--points", "10001"]

GOLDEN = {
    "coeffs_csv": (["coeffs", "--n", "12"],
                   "4d0fb28f673e28fd4dd317e446ca40af5b6b71029983dc445b374357f64bf200"),
    "coeffs_json": (["coeffs", "--n", "12", "--format", "json"],
                    "02531ae4ed8556403389751fea290616305d42172caeb653eb950ae7edcfb3fe"),
    "coeffs_zero_csv": (["coeffs", "--n", "0"],
                        "e787fc360f2f85e23386e6e49c0455843ea97aac900084b73e3e75655cb0bab7"),
    "enclose_csv": (["enclose", "--n", "2", "--x=-3"],
                    "402dc65126acc57a57e41ad84baeda2a5144259dd682dd0602eeba979c1413c0"),
    "enclose_json": (["enclose", "--n", "2", "--x=-3", "--format", "json"],
                     "615b3ba16f62ec43f6211024b71b62f6432367b5c618982d1544af6c69725fa2"),
    "enclose_far_csv": (["enclose", "--n", "16", "--x=-1e4"],
                        "b46f80e64ff22d9a4106d382a150ecad47943a1feb2391ffdbfd6015c878330f"),
    "enclose_far_json": (["enclose", "--n", "16", "--x=-1e4", "--format", "json"],
                         "0ea76c3da0072978ddf4f66daea68bb57a2748096e19db46be89fa60cdde43ec"),
    "enclose_edge_csv": (["enclose", "--n", "1", "--x=-1.000001"],
                         "9b538fa97c4eb77b3d17a9cd7ba6d154014017f5fab2da664a133f6655977950"),
    "sweep_csv": (SWEEP,
                  "30485b0682af450e86a02ed0e143e1787fba4826ed64a5a327510b6058009ced",
                  "fc8f36a2f110d9120584cecd1105c2a17478057f39544bf98425afb7400d3e97"),
    "sweep_json": (SWEEP + ["--format", "json"],
                   "53e3e7190b169745ca4253cb6faaa0624fbc0519158928ded92f15cecde51b71",
                   "29b61aa6247dfbc2e32d6ea4d933d14e4edc542f7bb08e6e8ea2012df55d7ba9"),
    "sweep_taylor_csv": (SWEEP + ["--with-taylor"],
                         "dcea92270957dfdb3823877b49f95693539b058aaad223b69f3e0cb48bf3d7c3",
                         "4825e701f3b51f75b14d6a7ca7fe08a120ad46d2c866e92653c172ba38db574e"),
    "sweep_taylor_json": (SWEEP + ["--with-taylor", "--format", "json"],
                          "de13981420e9d32acb7020504b38fe8e57ff1bbbdf22791d7175e0b93d1a9b24",
                          "783de8b4baa3cb770058c84dfffa3347fa9d0914dc7009239faf51c4c6c1eea9"),
    "sweep_log_csv": (SWEEP + ["--log-grid"],
                      "d5666e6f064d78fa9da460ecdb7b9f86dc5d561e53916fd7757cae6984daf867",
                      "a0017512d9fbda62dfb7ac324027d63fdedf6cfc79675014e245539796893a15"),
    "sweep_log_json": (SWEEP + ["--log-grid", "--format", "json"],
                       "f9a915d1f384ebea94bfacc933f05e0fbccabfec7eea65f9d4f5764a70fe11d3",
                       "00e5c030babaccd53f93f0601df3ca8a776bab9457bb31f1642b721e8ed715ed"),
    "sweep_log_taylor_csv": (SWEEP + ["--log-grid", "--with-taylor"],
                             "71d5eae3b46a3127c7e7c193babe464668cee22642351e60579e7b8a393a4047",
                             "d26af6cb399696e88bd884a9727868c344fda944ccdfe3aa1e725251308ba47c"),
    "sweep_log_taylor_json": (SWEEP + ["--log-grid", "--with-taylor", "--format", "json"],
                              "624ab64060f4c00b4c88fd3d0624d2cc067c71c9bc8766c260819ddbfcc7be8e",
                              "3d35b88e8d5921b8b8914a6a4b005a8501d097060f06f2b3db144c4add44d905"),
    "sweep_wide_log_taylor_csv": (["sweep", "--n", "8", "--x-min=-1e4", "--x-max=-1.001",
                                   "--points", "2000", "--log-grid", "--with-taylor"],
                                  "9c29c3251ecfc7631005f169c6259021f62129fa383bcf2df83c0820e9e735ca",
                                  "5f3c9612f58748ccf8a5db634494a5054a73b632bdbfdb7e80678e2fce8039bd"),
    "sweep_endpoints_taylor_json": (["sweep", "--n", "1", "--x-min=-2", "--x-max=-1.5", "--points",
                                     "2", "--with-taylor", "--format", "json"],
                                    "5f2708a009caf587c077fe914d5a5770fe476203e1bc5fc1c42a0ca39ac5d06c"),
    "block_taylor_csv": (BLOCKS + ["--with-taylor"],
                         "86e63d638d7380dfe317ed725aac6c2a00080ef7db6493973819e9680c3154c6",
                         "4b347750125d8b951f02d0e9906d222ee55bc3e9aa337accabdc69b956a35b5c"),
    "block_taylor_json": (BLOCKS + ["--with-taylor", "--format", "json"],
                          "f6c1e3bd7e4fa8bba384c903600fbbe9ae70cec0cb0a6818d43109daa0a764fe",
                          "4e5667845df3e3b64a44417ed64e8acee9a6d4051dfa2fb1b7cb93976b25f882"),
    "block_log_csv": (BLOCKS + ["--log-grid"],
                      "e602a04555d2dbcea025c0ac3c4982a2ced93b2f13a2f69618af759163da82d2",
                      "2d7721265ffd0114a3d268916a9bb286b4bfdd645d05ec7053a6daab6b1fc189"),
    "block_log_json": (BLOCKS + ["--log-grid", "--format", "json"],
                       "ec1d5d8bc0be5f625fc2a583c4c315a59617cc693bbbb74301f73f394f48d01c",
                       "6fa7bd28bfab9347d49986844c06b5dbcfab6b4d9b0c3a5637ff1fde264ed7a6"),
    # the bracket and Maclaurin columns overflow to NaN and +-inf far from -1
    "nonfinite_log_taylor_json": (["sweep", "--n", "4", "--x-min=-1e300", "--x-max=-2", "--log-grid",
                                   "--points", "3000", "--format", "json", "--with-taylor"],
                                  "440ce10a163f8ea223c0e57dc2cf686833f61cabe28a33bc76b41496ae68963e",
                                  "0b61126ea84e558e04f7f2c322ee352acdafb891270132091ffb659d7b3054ab"),
    "certify_n_json": (["certify", "--n", "12"],
                       "05727cb25aea7fb67feba27f307b7c6c1adb32cf16a7ad7ba7759b7bd06eab14"),
    "certify_n_csv": (["certify", "--n", "12", "--format", "csv"],
                      "d5558a5013b594c7af1e44b305349f3e63c278f270c051064c97a4671dd01e2f"),
    "certify_range_json": (["certify", "--range", "1..16"],
                           "7155e49a55fb219dd64eb0540e540dc0180089893c2032a5bae16b0932fb2966"),
    "certify_range_csv": (["certify", "--range", "1..16", "--format", "csv"],
                          "1c650a15145d8ca1e3469f5cbee7ea16a190dfdafedf80764a8830de3dd45514"),
    "certify_full_csv": (["certify", "--range", "1..64", "--format", "csv"],
                         "036b442534ce46e8d61c72ec54fb3b05d992263d82fdd823af9a67bf484f7052"),
    "compare_csv": (["compare", "--n", "10", "--points", "1000"],
                    "16d3ca0bf0bd0c6c59626e327f174c113f8b578f6e7b6db2843a080c119f9ece"),
    "compare_json": (["compare", "--n", "10", "--points", "1000", "--format", "json"],
                     "9fc2096f84d358f7ee7ce4d91cc9465bc83a76356dc73b95a71ddbdfcdc8dd17"),
}


def _stdout(capsys, argv):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(capsys, name):
    argv, *digests = GOLDEN[name]
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() in digests


def test_output_file_holds_the_stdout_bytes(capsys, tmp_path):
    for fmt in ("json", "csv"):
        argv = BLOCKS + ["--with-taylor", "--format", fmt]
        target = tmp_path / f"sweep.{fmt}"
        assert _stdout(capsys, argv + ["--output", str(target)]) == ""
        assert target.read_bytes() == _stdout(capsys, argv).encode()
