"""The CLI's bytes, pinned: stdout, stderr and exit code of each invocation.

Each entry holds the sha256 of stdout and of stderr and the exit code of one
command line, run through :func:`acmgenera.cli.main` with an 80-column
terminal.  The matrix covers every subcommand in every format, the oracle,
domain, usage and budget errors, and each subcommand's help.  ``bench``
prints timings, so every decimal number in its stdout is read as ``#``
before hashing.
"""
import contextlib
import hashlib
import io
import re

import pytest

from acmgenera import cli

EMPTY = hashlib.sha256(b"").hexdigest()

_PINS = (
    ("genera 12", 0,
     "e12725e74d71dacd93abd8f45bbd09cc341d0cc885f8fa7c32bb95617193e103", EMPTY),
    ("genera 12 --format json", 0,
     "c1db5d8863b0d439b97566b59ed029ccb2aafdef95f65351d754c43e5bcd13bb", EMPTY),
    ("genera 12 --format csv", 0,
     "0c1e8ca7a2d12b2ee74cd84046471f79e774a6cd6c7c5234357683ef650f873d", EMPTY),
    ("genera 12 --oracle", 0,
     "be46d88315b399c4add6d99673d0505b48865b4029fd3559b4be800aa4b488cc", EMPTY),
    ("genera 20 --oracle --format json", 0,
     "a7008d2c3f29fa634a9a9136bcf6185be0983a844cd551fc09817c7e31df80bd", EMPTY),
    ("genera 7 --format csv", 0,
     "3c60be216c854401e31aa681ab156f4b58d41b2e2099e23c4ffb5f714fffa16c", EMPTY),
    ("genera 1 --format json", 0,
     "77be3eec76a13632b3eda8564e1e76fc8ec1b8e7efdcd0a6e796b9b3a6f2f1d2", EMPTY),
    ("genera 2", 0,
     "9f4ff906a1a255e0510ff601132343a76ca208fe957b0a2930cb969c4f856ce9", EMPTY),
    ("genera 50 --oracle", 3,
     EMPTY, "c5dca1a9b36a9774eb2f85a81388fe060bb5e4f012c4561544ed89654852c2d4"),
    ("genera 1001", 3,
     EMPTY, "da3fedbf89b85de8bd47503d250778cac9919d0b99eae1562d0ecf6688a43026"),
    ("genera 0", 2,
     EMPTY, "eeaf69f64392ab107bf55bf3da70948b52d880ce1690f00b58463be21d7d25f2"),
    ("gaps 12", 0,
     "c43887997484b4f6cba4ba40dc5895db71421ad668918cae9be2ac7f0d520e73", EMPTY),
    ("gaps 12 --format json", 0,
     "ad2860a5556268b87fb88e3ebabfe7fd241209eb08c7911fe826cbe9cb6cc485", EMPTY),
    ("gaps 1", 0,
     EMPTY, EMPTY),
    ("gaps 30 --format json", 0,
     "36248be9a72ace3b70376a1c1fc1745acc3c900a3e0fdcc3627ff9d938a7bdac", EMPTY),
    ("search 15 25 --length 6", 0,
     "588b974b0c4e299113c06e642c62d5eca8c958e0191ed8bc231bd5259646a44d", EMPTY),
    ("search 15 25 --length 5", 0,
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345", EMPTY),
    ("search 7 5", 0,
     "231c199b0fab7612193251c1fe8ea6e3bb98f3d911ea91003b458964322b6379", EMPTY),
    ("search 4 1 --length 9", 2,
     EMPTY, "e4c420ac026c1a1e25020165179427e899b4c606e8d98e901d223f687cd047e6"),
    ("ranges 10", 0,
     "6bb710bce438de091cb4fb029c0fa0b2749e68061f290ca11a52b6cf855e8153", EMPTY),
    ("ranges 10 --format json", 0,
     "f13f73b7e1ed55bdc433401362bab04d36b219a7976483dbe54f5f1e4f5049c0", EMPTY),
    ("ranges 1", 0,
     "6147fa37e7f94d637b8d8c4b71635c99c4eac7fc43e297f06fa3891778b47464", EMPTY),
    ("ranges 0", 2,
     EMPTY, "eeaf69f64392ab107bf55bf3da70948b52d880ce1690f00b58463be21d7d25f2"),
    ("ranges 12 --format json", 0,
     "0bbeeb082da39218608ad521fa7d1595cf614edf67e65b38d97bccec62d7deee", EMPTY),
    ("mseq 15", 0,
     "3d7a391e20a93c51a1a956268aee4f2768862402c222de3fd190ec9be5ceda4c", EMPTY),
    ("mseq 15 --format json", 0,
     "a1900518e7dbc70f3809fcd0bca9e3715a8ff4d3b2b6c76a7d37aaa1cd5d93cd", EMPTY),
    ("mseq 0", 2,
     EMPTY, "c823dc1575266a39dbd83da7602872bc0d99fd793a45cb2ac3eeb4fe2f64780b"),
    ("mseq 0 --format json", 2,
     EMPTY, "c823dc1575266a39dbd83da7602872bc0d99fd793a45cb2ac3eeb4fe2f64780b"),
    ("min-reg 15 32", 0,
     "e984a795e41f749392b086070131824a8ba2acc1194f06b90aef29eaeffc0010", EMPTY),
    ("min-reg 15 32 --format json", 0,
     "e89839c54fc6f93940ffe080419a1c7f53acd1d759dff932fee11ab6571b64b2", EMPTY),
    ("min-reg 10 35", 2,
     EMPTY, "91e256a27b5a4b30f8615a27077a1ef3a0e3d9e4ce7c2b6c1ab50ccb8f0e3763"),
    ("min-reg 10 40", 2,
     EMPTY, "947a5caa840b332491c298a18b0e2e882aa52f92656f576dfc9d12a82cb02c17"),
    ("min-reg 10 35 --format json", 2,
     EMPTY, "91e256a27b5a4b30f8615a27077a1ef3a0e3d9e4ce7c2b6c1ab50ccb8f0e3763"),
    ("enumerate 7", 0,
     "194bea8de7757b1b4d1974764d79513a4cc0db2b433a3ba1943e3278ff9da6bc", EMPTY),
    ("enumerate 7 --length 4", 0,
     "1ed96b8c1e95298368523f9eb65e6bdd8042a94241936184311963e4c106fc97", EMPTY),
    ("enumerate 7 --length 4 --export json", 0,
     "2e88d030ee764697b3290f8bd0b25355640ae268952712da3a942ac202c1734f", EMPTY),
    ("enumerate 7 --length 3 --export dot", 0,
     "9f2396ce0d4fcbf5cd3998e9a27a972606420df63e39ee0a4215a11010515719", EMPTY),
    ("enumerate 5 --export dot", 0,
     "e80090176b794c74b822e3ef0b95525ee00925fa779538fb8b852086ac6a74b6", EMPTY),
    ("enumerate 5 --export json", 0,
     "bf3078fa9887d4e109265132689259c7b9e7eba5de75c3364f029bfc919993bc", EMPTY),
    ("hilbert 1,3,6,3", 0,
     "509c43b7cf8551982411be92c8408d660e0ccf421b377d6587f7f5a8a3076508", EMPTY),
    ("hilbert 1,3,6,3 --format json", 0,
     "fee695fea7e9f2dacb75750807d11a0ea4a655a36982ae4abdc35c475f1387b5", EMPTY),
    ("hilbert 1,1 --tmax 2", 0,
     "b17d0135762ac8f2d7dafcef2c8a8e3aac9c02150f1b904b5d0f70d40a599a1c", EMPTY),
    ("hilbert 1,2^3,1 --format json", 0,
     "c4ce4a9fabaeaede45e974ff927922b457fc46c16c6c6b2c499dd454b7bf25df", EMPTY),
    ("hilbert 1,2,4", 2,
     EMPTY, "c7d5d9cb555577b65f491e8f2fb92a75da1038343486afdd33b12e86aedc3a03"),
    ("hilbert 3,1 --format json", 2,
     EMPTY, "0f665214b08c769c7babf8050049658abe544dd59b870775f21d44fb3bdbb329"),
    ("bench 10", 0,
     "aa3bab88197c8e55c75dc797f4d8f1462ed1267b75f4e5fcbe415155f2f510b0", EMPTY),
    ("bench 10 --format json", 0,
     "f3335494528078b252bba04fab6db2556d66c95f6e6d9e263f8735310f56e371", EMPTY),
    ("bench 41", 0,
     "812553052656fa94abfc909e096a3d2c2125cc4e1da24f7d31dcb2eb629de731", EMPTY),
    ("bench 41 --format json", 0,
     "c45ff5b19b2ab61b15a818744f2a8ce4d59d9bd001b9d89c3d4c007a6972e7f6", EMPTY),
    ("", 1,
     EMPTY, "36718cfa3772bbd427cc908ff5b6c6331922c34554616f1a26b7fdf057f94de3"),
    ("not-a-command", 1,
     EMPTY, "c0b97bd53d4b3408e141dc8b7dcbb8fd5e912260097da00a011bb4f24b898dd4"),
    ("genera", 1,
     EMPTY, "0be0ca00041f8646f420282791931fd0073fc980ba3ea8ed5620f54ab5c4590c"),
    ("genera 7 --format yaml", 1,
     EMPTY, "4d55be64c8cfd68ece93afbc2b833599d79ba56ea49c219d72302dd18063766f"),
    ("gaps 7 --format csv", 1,
     EMPTY, "a25699218bd951bb1afe3a341f24a823aea77e7171e85f20fcdcd016e680bee3"),
    ("search 7", 1,
     EMPTY, "c01dec3f12c33ab6ddfe40a2f066f938f105054f0b708e2c25ea19412036dc16"),
    ("min-reg x 1", 1,
     EMPTY, "813f32c27eb019ddd3d324a292631808ddc81d0d7090d92ee94b4301c8e9d3d7"),
    ("bench 10 --parallel 2", 1,
     EMPTY, "9ebb511c57045b88469225c815768ed1c535af7a4accb17542a3b041b4fb77ec"),
    ("-h", 0,
     "5a2802705a94adec28d26b003e065a9b7b0eec1db047b4c017c5316137319dc1", EMPTY),
    ("genera -h", 0,
     "bce9d949120a01b44e3391cfac3e9569c860fe570cb2dd1b83c61f5884f3d97c", EMPTY),
    ("gaps -h", 0,
     "3efaef92e329729801b7340001bf080f851e6b5ae78620fa3a82be74263e3644", EMPTY),
    ("search -h", 0,
     "a55950898563ed619e5dc1e011e98e5a3373d48b130944033153943b23f144c9", EMPTY),
    ("ranges -h", 0,
     "3d7089c0a16b56af81b7d85d3ad46d6fcc862400ce1f50f73cd653b6ca897b7b", EMPTY),
    ("mseq -h", 0,
     "c4ea8edbd250c451d97cd33b7487105a1a579c1cafdc7b8f4ab5eb4224744278", EMPTY),
    ("min-reg -h", 0,
     "6e45ca97d795dfacd65d3785356cc28d8ad38813842334315ced20a980869e75", EMPTY),
    ("enumerate -h", 0,
     "a6257f1787eaee2f0ebea5348b1dad8c2b4a068232d604adbe92b7f98a3d5d7a", EMPTY),
    ("hilbert -h", 0,
     "3acdf9da96501ab8c8e9c2273d988b17c2a43c8e466e5d9797e8c5509765cf2f", EMPTY),
    ("bench -h", 0,
     "6aa0caeef3cd3c2aa8b734243c81fbdcfe5e96ea712eadf983b1ca349a93f76f", EMPTY),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and -h
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("line, code, out_sha, err_sha", _PINS, ids=[pin[0] or "(none)" for pin in _PINS])
def test_cli_prints_the_pinned_bytes(line, code, out_sha, err_sha, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    out, err, got = _run(line.split())
    if line.startswith("bench"):
        out = re.sub(r"\d+\.\d+", "#", out)
    assert (got, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()) == (
        code,
        out_sha,
        err_sha,
    ), (out, err)
