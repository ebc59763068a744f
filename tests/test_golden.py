"""Golden outputs: the sha256 of the CLI's stdout for each subcommand and format.

The digests were taken from the package before its kernels and its CLI
emitter were merged, and pin every byte of that output.  The ``block_*``
and ``nonfinite`` cases were added, with digests from the same emitter,
before the emitter began writing its tables block by block: their sweeps
cross several 4096-row blocks, and the nonfinite one prints ``NaN`` and
``Infinity`` cells.  The ``chunk*`` cases, with digests from the emitter
that computed each column over the whole grid, cross the 8192-row chunks in
which ``sweep`` now computes its grid and columns, or stop one row short of
one.  When the coefficients a_k became correctly rounded
(1 to 4 ulps moved at 105 of the orders 0..150), every case that prints a
coefficient or a bracket took new digests; the ``x``, ``exp`` and Maclaurin
columns kept their bytes, and each bracket cell moved by less than
4 eps f_n(|x|), the rounding scale of the Clenshaw sum.  ``sweep`` prints
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
# 2C + 1 and C - 1 rows, C = 8192 being the rows of one chunk of a sweep
CHUNKS = ["sweep", "--n", "3", "--x-min=-40", "--x-max=-1.01", "--points", "16385"]
SHORT = ["sweep", "--n", "3", "--x-min=-40", "--x-max=-1.01", "--points", "8191"]
LOG_CHUNKS = ["sweep", "--n", "8", "--x-min=-1e4", "--x-max=-1.001", "--log-grid", "--points", "16385"]
LOG_SHORT = ["sweep", "--n", "8", "--x-min=-1e4", "--x-max=-1.001", "--log-grid", "--points", "8191"]

GOLDEN = {
    "coeffs_csv": (["coeffs", "--n", "12"],
                   "b39207b832f50bae62ff8ff039eaae810c0fda50abd9b95ed31f5b4c35f8fae8"),
    "coeffs_json": (["coeffs", "--n", "12", "--format", "json"],
                    "eb8ca5059a5148ec8a0a7bf888baeb86ceaf4bc264ff81166af1e6baba19b241"),
    "coeffs_zero_csv": (["coeffs", "--n", "0"],
                        "81453488e424aec370f54851a4ea79e49a0fabf802f2eab9f206a813dbf05cd1"),
    "enclose_csv": (["enclose", "--n", "2", "--x=-3"],
                    "7824df0e20ab4af21633ac8e643ac86c7f8a2315a7c1af7dcac7bc035d349fc5"),
    "enclose_json": (["enclose", "--n", "2", "--x=-3", "--format", "json"],
                     "41058bc3a234b19eab98f44547f0fe7a09115d4ef236b34856922747a053f07e"),
    "enclose_far_csv": (["enclose", "--n", "16", "--x=-1e4"],
                        "b46f80e64ff22d9a4106d382a150ecad47943a1feb2391ffdbfd6015c878330f"),
    "enclose_far_json": (["enclose", "--n", "16", "--x=-1e4", "--format", "json"],
                         "0ea76c3da0072978ddf4f66daea68bb57a2748096e19db46be89fa60cdde43ec"),
    "enclose_edge_csv": (["enclose", "--n", "1", "--x=-1.000001"],
                         "eb9e19e69dcd8adc9431a54f4815c5e65fc202403035401cd201bc84d5d9b4b1"),
    "sweep_csv": (SWEEP,
                  "d930474486132fcccf2fed10e118d84ed4f4f56732e353f4c21480797758ad1a",
                  "21cf018c4512e3ea140af72efd01cbc2b1b41d9f556e784d320af84998c438fe"),
    "sweep_json": (SWEEP + ["--format", "json"],
                   "d9722d083da2319e95490923517daae2454bd079565719b2623a7b116159430c",
                   "fb88633b42d9e2a54c9052a60c092abbd20bf0029b336a6b06bbbd3520331406"),
    "sweep_taylor_csv": (SWEEP + ["--with-taylor"],
                         "239cafaf5f4c1ed78aafb8cf3e405f0090740c4074e6b39c49a7483dc2bc4bbc",
                         "84d96adb8373feaa9ae69e626f5e2bbb5b4924539fbd1cd9f65b726de338f256"),
    "sweep_taylor_json": (SWEEP + ["--with-taylor", "--format", "json"],
                          "039f817e27a46470895560adab930170fb91f9e3c99709cbb25f3fe4c87a44a1",
                          "b0ad805d45469902c09e259a5ee0cc7921413c51920196cb3da1f8b4a4fd4463"),
    "sweep_log_csv": (SWEEP + ["--log-grid"],
                      "ae411baf40ed182c773092c14496bc90d62c3e715f5a5012864b0264098e7333",
                      "dfeebbada9062be205e2a9643805276df418b2fdc93925b16b3eff3d020407a6"),
    "sweep_log_json": (SWEEP + ["--log-grid", "--format", "json"],
                       "94baefeb2ae702eb035cba86621940255a2adc0ace035052d43774d3c079ffb2",
                       "ba581b3a85c567a17dc4d3241917f0b91c6dec470f983aef097722136ca0b6e7"),
    "sweep_log_taylor_csv": (SWEEP + ["--log-grid", "--with-taylor"],
                             "25e734b14b163b7b9b3fb311e712f03f110e59055517832d617820fd9f5806e1",
                             "22fdac7d57970c1ff328c739345daec19f05d02e4597bbee1289832d562610d7"),
    "sweep_log_taylor_json": (SWEEP + ["--log-grid", "--with-taylor", "--format", "json"],
                              "b42b67fe4bab519e225b5ec1634348b6cb4cb345cf4cacb8b45ce8d7602e04cb",
                              "25539845e7c591b9392a1db7d75d7cd9db55ecaf8e7956a61ad3d41986a5de08"),
    "sweep_wide_log_taylor_csv": (["sweep", "--n", "8", "--x-min=-1e4", "--x-max=-1.001",
                                   "--points", "2000", "--log-grid", "--with-taylor"],
                                  "0b53e5514feb3dbf84e5eb3d58edf242843b4693a2dbb60b11379541e0ac2610",
                                  "4de11b9e516187397ed2312089284d94269cfabc14688ef1040d009663d614ef"),
    "sweep_endpoints_taylor_json": (["sweep", "--n", "1", "--x-min=-2", "--x-max=-1.5", "--points",
                                     "2", "--with-taylor", "--format", "json"],
                                    "1764735c90bad10e6aff4ca5a9f9d27e6e642b7021e6cbcf3d2e87d2804d30b4"),
    "block_taylor_csv": (BLOCKS + ["--with-taylor"],
                         "472d37c31686a45c74385464ef80a18d26703a56c98f8187c06b1817be122b0a",
                         "cd7b4db371433a489541f87f05b18b5d430b87903e9814ba2e304438f77157c8"),
    "block_taylor_json": (BLOCKS + ["--with-taylor", "--format", "json"],
                          "00d223113dc282592b2351960fbdffcf1c257df499257726e38facd21c400d64",
                          "97b0d88425b5af6c06f071cdd0e28de37962f551515febb36e96022712fa1625"),
    "block_log_csv": (BLOCKS + ["--log-grid"],
                      "fe99fcabf113dc769961f8d04b0773963e2a0f0d61e3f65add9bd2cead675ecb",
                      "5399a491d433d3912680743defda332e2f0d700c4f62aeed3d9314f08d86a86d"),
    "block_log_json": (BLOCKS + ["--log-grid", "--format", "json"],
                       "c7ba54d6185dc0e139d7ae2fa4874a8c5c3daced5cd290067d36a96980132fc0",
                       "25bed6fd589938c4759bc129e5177a51f93bd72f5376f47683eda1e317bee885"),
    # across the sweep's chunks: the last of 2C + 1 rows has one row
    "chunks_taylor_csv": (CHUNKS + ["--with-taylor"],
                          "46980531770f535b0f12593a0a85b0709f933a0e672e41e07a64a6bb003071b0",
                          "281e757a7efdd7a2f3a043c2d3962e1cc52b31b6a9cf3638dc5e2caf28278f1b"),
    "chunk_short_taylor_json": (SHORT + ["--with-taylor", "--format", "json"],
                                "4aa4334f47ebdad2aaa46ee04ad94aac031f65b241536817a2904476ec2bd5b0",
                                "7ebd9c5f69523d87c20230e5e5b3aa5b474bcf715190015ab3ea67227fe181d6"),
    "chunks_log_taylor_json": (LOG_CHUNKS + ["--with-taylor", "--format", "json"],
                               "08982d2b98e21c4142c85baf18ba57e5c67267e9a0d98e197b9794c78ef612fd",
                               "9e695ca83ac914e118fc6e31e9c140c8bdeb5204bb0d91693a54a7072398ca37"),
    "chunk_short_log_taylor_csv": (LOG_SHORT + ["--with-taylor"],
                                   "5983bb725b75c047d60570960d3a1bdcb5f579ec5447242d92d9836759050613",
                                   "61aa4f6323a381e8c338cce7f31a9183d911243115512cc981bb3f58947b294c"),
    # the bracket and Maclaurin columns overflow to NaN and +-inf far from -1
    "nonfinite_log_taylor_json": (["sweep", "--n", "4", "--x-min=-1e300", "--x-max=-2", "--log-grid",
                                   "--points", "3000", "--format", "json", "--with-taylor"],
                                  "b493dc22f08a11b3858029713e2377dbd2f73e4d8876b3dc96994b03fd01f472",
                                  "2ae0ee4ea648581a699b1f9969b81947eadb93ab0825d39b9d3aea44e98dca74"),
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
                    "e28982d517ae43d0c2842daebae30e2b1af3ce494eab9b31d0ad07926dc505e2"),
    "compare_json": (["compare", "--n", "10", "--points", "1000", "--format", "json"],
                     "5c03cf57f73fefd841561a798098b5f016f059f304d80e6afa7f9e524644a3f4"),
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
