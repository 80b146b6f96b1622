"""Golden outputs: exact bytes of a fixed set of CLI commands, pinned by sha256.

Each command's stdout (and, for ``run``, its transcript and report) must
hash to the recorded digest, and so must the stdout of
``scripts/attack_analysis.py`` at 3, 4 and 9 parties and of
``scripts/detection_experiment.py --rounds 400``, so any change that moves a
printed digit or a transcript byte fails here.  Exact-mode reports are
pinned too: their mutual information is exactly 0.0 on any build, since
in every standard table the attacker's own sign is a fresh random readout,
whose bit a vector holds (``test_attacks`` checks this for n=3..8, every
attack, target and standard variant).  The digests were
recorded on Python 3.11 with numpy 2.4.6.
"""

import hashlib

import pytest

from ghzqss.cli import main
from ghzqss.protocol import standard_variants
from ghzqss.session import REPORT_NAME, TRANSCRIPT_NAME
from script_loader import script_stdout

ATTACKS = ("none", "intercept-resend", "collective-cnot", "collective-h-cnot")

ANALYZE = [
    ("analyze", "--parties", str(n), "--variant", variant.name, "--attack", attack)
    for n in (3, 4)
    for variant in standard_variants(n)
    for attack in ATTACKS
] + [
    ("analyze", "--parties", "3", "--variant", "psi2", "--attack", "collective-cnot",
     "--payload", "1"),
    ("analyze", "--parties", "4", "--variant", "psi2", "--attack", "intercept-resend",
     "--condition-bell", "2"),
] + [
    ("analyze", "--parties", "10", "--variant", variant, "--attack", attack)
    for variant, attack in (("Psi1", "intercept-resend"), ("Psi6", "collective-h-cnot"))
] + [
    # every Bell condition that has positive probability, on the default
    # variant and on Psi2, where intercept-resend is caught
    ("analyze", "--parties", "4", *variant, "--attack", attack, "--condition-bell", str(bell))
    for variant, attack, bells in (
        ((), "intercept-resend", (0, 1)),
        ((), "collective-h-cnot", (0, 1, 2, 3)),
        (("--variant", "Psi2"), "intercept-resend", (0, 1, 3)),
        (("--variant", "Psi2"), "collective-h-cnot", (0, 1, 2, 3)),
    )
    for bell in bells
] + [
    ("analyze", "--parties", "5", "--variant", variant, "--attack", attack, "--payload", payload)
    for variant, attack in (("Psi3", "intercept-resend"), ("Psi6", "collective-cnot"))
    for payload in ("0", "1")
] + [
    ("analyze", "--parties", "5", "--variant", "2,4", "--attack", attack)
    for attack in ATTACKS
] + [
    ("analyze", "--parties", "10", "--variant", variant, "--attack", attack)
    for variant, attack in (("Psi3", "none"), ("Psi10", "collective-cnot"))
]

RUN = [
    ("run", "--parties", str(n), "--rounds", "200", "--seed", "7", "--attack", attack,
     "--random-message", "8")
    for n in (3, 4)
    for attack in ATTACKS
] + [
    ("run", "--parties", "9", "--rounds", "120", "--seed", "7", "--attack", attack,
     "--random-message", "8")
    for attack in ATTACKS
] + [
    ("run", "--parties", "4", "--rounds", "200", "--seed", "3", "--all-subsets",
     "--attack", "collective-h-cnot"),
] + [
    ("run", "--parties", str(n), "--rounds", rounds, "--seed", "7", "--attack", attack,
     "--random-message", "8", "--mode", "exact")
    for n, rounds in ((3, "200"), (9, "120"))
    for attack in ATTACKS
] + [
    # six rounds plan only 3 of the 10 standard keys, and 3 keys of other subsets
    ("run", "--parties", "4", "--rounds", "6", "--seed", "3", "--all-subsets",
     "--attack", "intercept-resend", "--mode", "exact"),
]

GOLDEN = {
    "analyze --parties 3 --variant psi1 --attack none":
        "dff998d412178c07b0106d7beaa939804c624d5e3c94a0437d53351d5a80d69e",
    "analyze --parties 3 --variant psi1 --attack intercept-resend":
        "9fb1a36a185183a72b4ab77242b61eb82231375b6b8d5e9bb532a4e0d914006b",
    "analyze --parties 3 --variant psi1 --attack collective-cnot":
        "aa8c93b8d681527c4950e720200c551950089dca16e6c796df46ccaa05d338e3",
    "analyze --parties 3 --variant psi1 --attack collective-h-cnot":
        "5a7e401ef092badc68fdb0ac01d733aecb1227d6ece16cf0d8dddb4b6c20be24",
    "analyze --parties 3 --variant psi2 --attack none":
        "204b01cf1e9f8a908a5be7accf8a2d3a8098b86027e65e6a5c75046fd14dd438",
    "analyze --parties 3 --variant psi2 --attack intercept-resend":
        "049961aceee2cb558a68acf7d168d29a26235f805cceca8de02a3a102bd509c3",
    "analyze --parties 3 --variant psi2 --attack collective-cnot":
        "2a8f4e965a84a45af7196c5990e2ba566870907154c7c52f8a0fda48069ef518",
    "analyze --parties 3 --variant psi2 --attack collective-h-cnot":
        "8090a96d5a5f9a07bc02cee59f623ebc4d985c7a5187c5b505b8162e1585f50c",
    "analyze --parties 3 --variant psi3 --attack none":
        "efee2a0eab2ed8ccefb697e94a4ebe15e38d498515bf8135c3bdb16de34a44a0",
    "analyze --parties 3 --variant psi3 --attack intercept-resend":
        "c88a571c7fae08743b4d2c05171376486a1fda6d69406bce2fb6f80f64f5a724",
    "analyze --parties 3 --variant psi3 --attack collective-cnot":
        "bbdf67df1256a45066c07acb882de64b4900e6ec8a3adf898f8229982877bd10",
    "analyze --parties 3 --variant psi3 --attack collective-h-cnot":
        "a263cd95e8edeceedd3e8e3f9130ee561320e884446acb13201629ffd32038d2",
    "analyze --parties 3 --variant psi4 --attack none":
        "c1f505318719ddd5cd6630f2d8c87c4958ea98c5feef85eb24a9446935e5ba14",
    "analyze --parties 3 --variant psi4 --attack intercept-resend":
        "87f54ee820c07317b6ba30be0cb51fb50ee686d6ce6c845dd73c099c11790e21",
    "analyze --parties 3 --variant psi4 --attack collective-cnot":
        "111d0211f838426f6d4fcf5048d3ab5b27b8073259c578c4e9772d1c1c653b92",
    "analyze --parties 3 --variant psi4 --attack collective-h-cnot":
        "e91104c4701e7ca600b5dbc25512cefc603d3428fc83cf38e342cc23fcb0a6cd",
    "analyze --parties 4 --variant Psi1 --attack none":
        "3108fff2f2c0927167c675828920b6ee5e976c454b4ea3ec0d7ce48d6a4ef555",
    "analyze --parties 4 --variant Psi1 --attack intercept-resend":
        "3ba2d676d630b45a36d58ee90dd15d2013b463688056a881c2d31c38101a72e3",
    "analyze --parties 4 --variant Psi1 --attack collective-cnot":
        "b18da3b73e31feb6ad29d06bf4fcb2a7d1d84b5bd42dd7d643284de270ed45e6",
    "analyze --parties 4 --variant Psi1 --attack collective-h-cnot":
        "fd19408e8e6db46f6e07e2c95b2b8247f9e9e41575afad05ad1f945ff3745f49",
    "analyze --parties 4 --variant Psi2 --attack none":
        "7ccfde1799d4d5b2be8bf3652621f6c6dd95157fe2456b0ad2413b0bd8f4d58e",
    "analyze --parties 4 --variant Psi2 --attack intercept-resend":
        "619446107175948bc2c6efbeba7e894e84ddc634bc392d90c18b97bb116da42c",
    "analyze --parties 4 --variant Psi2 --attack collective-cnot":
        "545b1214025e1eb0d5b38a4e92c3a40632dc933fc8cdb3335ff94fcf57ac564b",
    "analyze --parties 4 --variant Psi2 --attack collective-h-cnot":
        "358858a7aa85e8ff2d67a75af4a9ebb93f4adf412471fe087f6c21cf81319b0d",
    "analyze --parties 4 --variant Psi3 --attack none":
        "ba5bd279a956a42e7611acd2e109ae35c5e63b30ad471926aaa7be92a6328f89",
    "analyze --parties 4 --variant Psi3 --attack intercept-resend":
        "c757f254086192085b4ab5a48a12914b2d60c23915c33186eb2de1a8f231d24e",
    "analyze --parties 4 --variant Psi3 --attack collective-cnot":
        "fb85470a75f0f05d4f5e1ef62d594595ac5f103ec5b493de2d19f54dda86c47f",
    "analyze --parties 4 --variant Psi3 --attack collective-h-cnot":
        "3f44bad9dcad98126d2e389c9adb118a5eba1856520b35d5f6f75e48864d3fee",
    "analyze --parties 4 --variant Psi4 --attack none":
        "dfb29aee90b7603e665741037193a67ecd68bda0c4f1fb0c967e5d920ac61836",
    "analyze --parties 4 --variant Psi4 --attack intercept-resend":
        "dbcbbd78bb81fd6cffe057653a1991eefada090975773cb06a32c3e39c8ed94f",
    "analyze --parties 4 --variant Psi4 --attack collective-cnot":
        "45d194fc0c59ecb2818b9fbcf4cf6317796e8f452ec6c0e8df16f0eccf4a65c3",
    "analyze --parties 4 --variant Psi4 --attack collective-h-cnot":
        "74cbbd894f87d9894082aae4048df9c2e6ec82515f976d932798c7ce0e24efee",
    "analyze --parties 4 --variant Psi5 --attack none":
        "bd7d334d7787876c210677ebe8269f72bba88a782a8407e739b468b12d49d265",
    "analyze --parties 4 --variant Psi5 --attack intercept-resend":
        "9d63b4b31ba99cd3943a6916cdfa206805f983007bb36fc3c9e5a1955d209018",
    "analyze --parties 4 --variant Psi5 --attack collective-cnot":
        "a440085578dded3b627faede397422cf684dbf2efd8ca169c55f6b8c1e2e09c5",
    "analyze --parties 4 --variant Psi5 --attack collective-h-cnot":
        "058b9ece4473ed6b604524265dd9fdd60a473b026ce70265005e5b1df52f3fd4",
    "analyze --parties 3 --variant psi2 --attack collective-cnot --payload 1":
        "7935d054e647fb0ba21f1b20710c6271cc0cd692118d806517ffe3f76e3b77a4",
    "analyze --parties 4 --variant psi2 --attack intercept-resend --condition-bell 2":
        "6af8108d69252aafa8773b36e273ebdbd3b7474a94b9e6fb1ef2544224d4f6fd",
    "run --parties 3 --rounds 200 --seed 7 --attack none --random-message 8":
        "eb8d13ad2224eab08b44f52e097be840dd274a2ffe7c9b5c38371e7e54513280",
    "run --parties 3 --rounds 200 --seed 7 --attack intercept-resend --random-message 8":
        "abb9c6c69864b5445c65f7bd90fabe97777d787d7308960fe5d1c74e25c3d4a8",
    "run --parties 3 --rounds 200 --seed 7 --attack collective-cnot --random-message 8":
        "a10712ca2c7c288d9a5dc83cf39cca3690acc8897b4a6197f6706e6934011eec",
    "run --parties 3 --rounds 200 --seed 7 --attack collective-h-cnot --random-message 8":
        "381949c3c3a3c4a086743553bbcb28562216287f07b7cfd1d446c8a77ae55940",
    "run --parties 4 --rounds 200 --seed 7 --attack none --random-message 8":
        "a473ac840c400a183493eb74150341ce9dad6a3e460b458d7d01c46dd99bd6b9",
    "run --parties 4 --rounds 200 --seed 7 --attack intercept-resend --random-message 8":
        "5d4c9fbabefe3795a828974e8afa879ee01d11ab3df3ef273237f472785d56cb",
    "run --parties 4 --rounds 200 --seed 7 --attack collective-cnot --random-message 8":
        "12e3b2463e29c718edd216dfb2c3f38bc064687d4e1e93df252b55d5c436d353",
    "run --parties 4 --rounds 200 --seed 7 --attack collective-h-cnot --random-message 8":
        "8351022ba3f5c4d5186cdc73352440d27dfb76d7685be24358558ed62dd79389",
    "run --parties 4 --rounds 200 --seed 3 --all-subsets --attack collective-h-cnot":
        "6ef237104ff55e77e114232614c75e928ed9900f0d40b17b24f56a980335e152",
    "run --parties 9 --rounds 120 --seed 7 --attack none --random-message 8":
        "922421167c636bc0ce036774afbbbfae8983f7598e556a876e4fdb6b82afa431",
    "run --parties 9 --rounds 120 --seed 7 --attack intercept-resend --random-message 8":
        "5f5c46e55809736a31db8d0eefc037abefb3addf4240f11c976ff357060d4669",
    "run --parties 9 --rounds 120 --seed 7 --attack collective-cnot --random-message 8":
        "89bb649eaed3c188a435b7e3bdf1e53206202ca9ba9988a55e52c9440d6df3b3",
    "run --parties 9 --rounds 120 --seed 7 --attack collective-h-cnot --random-message 8":
        "17d6f764aae69e34a4e223206fec3c81b3e567aa145b8a7905559ce3f6b553ef",
    "analyze --parties 10 --variant Psi1 --attack intercept-resend":
        "196fc1ef261bc448b95b913c0a1330721e8f17de314cd0b4cc5ffac6f9909f18",
    "analyze --parties 10 --variant Psi6 --attack collective-h-cnot":
        "ebecfbd24577c0e660c5f3ffa8e1b7eec88b299d857e213160861c813be421bd",
    "analyze --parties 4 --attack intercept-resend --condition-bell 0":
        "f2f06b3cd65397438d8b6cd9e0961b6ddb9d334acfb91e75291df6b9991e044e",
    "analyze --parties 4 --attack intercept-resend --condition-bell 1":
        "3b2ff9a489498fbfa2e2efcfd5d0eff894c2f2271c7cf5875db79310598a75d1",
    "analyze --parties 4 --attack collective-h-cnot --condition-bell 0":
        "acb8a7799c9a4ea1c9f03033ee1557ce2a15d40dcff1757b6300a3c25f3bd4e1",
    "analyze --parties 4 --attack collective-h-cnot --condition-bell 1":
        "207533219ad6b0ef4eb7ce3f569538e1ba3a61757db6b27620b31a8bb5fcc096",
    "analyze --parties 4 --attack collective-h-cnot --condition-bell 2":
        "a284145b281fb7af8e052a8ef2e88ad108b9e52f8183570ca9e893351590c391",
    "analyze --parties 4 --attack collective-h-cnot --condition-bell 3":
        "ade7dd862b7d94d35d8419c2d7cb5d680316d98120497f4e6b9f98e0977958b5",
    "analyze --parties 4 --variant Psi2 --attack intercept-resend --condition-bell 0":
        "65c822fff81ce66f5e3c9987b0d93a7a13b0f46f77317636d11a712fe3c5f4f6",
    "analyze --parties 4 --variant Psi2 --attack intercept-resend --condition-bell 1":
        "fc0a269190b7a8d7895d676fb86b835ab9fbeadbf2b34ee9402f0ccb93927e25",
    "analyze --parties 4 --variant Psi2 --attack intercept-resend --condition-bell 3":
        "88f770e3d82de08c43fb31438a0b89448a57ca38acc56878fa13f5f4640b6352",
    "analyze --parties 4 --variant Psi2 --attack collective-h-cnot --condition-bell 0":
        "789da267482c96cd109596f84433da3db8eec9b00b3e281437cb5df15c8ff126",
    "analyze --parties 4 --variant Psi2 --attack collective-h-cnot --condition-bell 1":
        "a6226793bcfa006815df5a76a8fb72edc8120aa2f5984e635b9d321daec2aca9",
    "analyze --parties 4 --variant Psi2 --attack collective-h-cnot --condition-bell 2":
        "784eb31219083ff2d605f83bcbe2d14d08b885d881f0d98ef43449919d85af28",
    "analyze --parties 4 --variant Psi2 --attack collective-h-cnot --condition-bell 3":
        "897ed61274b1ee88062309de48ba52cf6ae89d8c8b264b09ae25d4c7e42e9e71",
    "analyze --parties 5 --variant Psi3 --attack intercept-resend --payload 0":
        "984b7bcde63ccf86b12481604f0400910d94c0acaa20a1efa8b9a1e0f6f4f551",
    "analyze --parties 5 --variant Psi3 --attack intercept-resend --payload 1":
        "20605dc0d1eb857cc0bb0313faa0e6a33c1103e57dcd4d3e98984f5febf6f1ed",
    "analyze --parties 5 --variant Psi6 --attack collective-cnot --payload 0":
        "c1fce9105b0db55d2fa3aefd37e38139ad9ba909ff5aae1a83ec53a98c01ad4e",
    "analyze --parties 5 --variant Psi6 --attack collective-cnot --payload 1":
        "cd1e2e6d68eb673884ab9c360d75364898b3a486c9f63968588ef5150f4f4061",
    "analyze --parties 5 --variant 2,4 --attack none":
        "f0c0421556acdf97f8aa432e70ff9b1e36d5105a3987b7bc73d4422d19f9b107",
    "analyze --parties 5 --variant 2,4 --attack intercept-resend":
        "c1c489d1dee97b5559a156bf4fddb6cf6b22848eb5037268350c4a6d9eebe87b",
    "analyze --parties 5 --variant 2,4 --attack collective-cnot":
        "f4720a0aabdc8e104fec6c4e2ba6958c508306a4f43bd03ae6b4721b20abc9e6",
    "analyze --parties 5 --variant 2,4 --attack collective-h-cnot":
        "7705f2030b7600407a782d80e0907913e6d59b5bbe87b38b6772360aa3cfbf25",
    "analyze --parties 10 --variant Psi3 --attack none":
        "9d0464a2d2042bac3045e80e69dbd20bd2a234718f7af246cb549d3efcea19ca",
    "analyze --parties 10 --variant Psi10 --attack collective-cnot":
        "bd6faa0ac87f395e9b6fefa68ffa144257bc7a83b5395523a421a9587a3ea809",
    "run --parties 3 --rounds 200 --seed 7 --attack none --random-message 8 --mode exact":
        "a8d63190b7bec90dcb115f21c5a1cd76835096cfc29dcedcfb9695931e440997",
    "run --parties 3 --rounds 200 --seed 7 --attack intercept-resend --random-message 8 --mode exact":
        "60f2e3a707506832be65df110149b51fbb640921fc08ef09107d0f6d0c4f8f66",
    "run --parties 3 --rounds 200 --seed 7 --attack collective-cnot --random-message 8 --mode exact":
        "e81c4c0b55312dc5d4c9a5568b79e56e04a7aed9e7b9aa1fb684658211bd2134",
    "run --parties 3 --rounds 200 --seed 7 --attack collective-h-cnot --random-message 8 --mode exact":
        "112c3a823a4e44e2527f575d63dc2ca4dfb2bbfb0fedb03d757973cc38eb7ae0",
    "run --parties 9 --rounds 120 --seed 7 --attack none --random-message 8 --mode exact":
        "95c11933421b453256d7b47449639f246d20ceb344fd120ca5efb45bdc30a6dc",
    "run --parties 9 --rounds 120 --seed 7 --attack intercept-resend --random-message 8 --mode exact":
        "6e43961967b2d8b374251203ea6e745426a3430dfafa1933ab03b4e97aa91d9c",
    "run --parties 9 --rounds 120 --seed 7 --attack collective-cnot --random-message 8 --mode exact":
        "5bd92dfd83edfca88f46558f458f1dba517bd93f08a452f8ffefde0b16285dfd",
    "run --parties 9 --rounds 120 --seed 7 --attack collective-h-cnot --random-message 8 --mode exact":
        "5990139b00d7a02d1d0211c0aa17d8f9093205d38923535aaf7ebdbce0e47396",
    "run --parties 4 --rounds 6 --seed 3 --all-subsets --attack intercept-resend --mode exact":
        "c5bf1a8541f6d03f404d426e9e5bef717085b55c4d589a699ec512fa793ad555",
}

# stdout of each script run with these arguments
SCRIPTS = {
    "attack_analysis.py --parties 3":
        "cbc0e61c417f797b6d2e41bd17772288ca956c6f3a347e194c0678944c8b5cf4",
    "attack_analysis.py --parties 4":
        "191bf5fab9c9f9d3153bcd089a9fc5fe44e399f9f495f5075d1bf503aab65ba3",
    "attack_analysis.py --parties 9":
        "221ab54ab2fd7acaa9d05b2fd26b62cc07bbbd017c0ef04db928327fb6beac7c",
    "detection_experiment.py --rounds 400":
        "093863d42221a778c26926b45e13ecb8d8a76feb2d424a7b5fcd2b4fd5742992",
}


def command_bytes(argv, out_dir, capsys) -> bytes:
    """Everything one command writes: stdout, then any session files."""
    extra = ("--out", str(out_dir)) if argv[0] == "run" else ()
    assert main([*argv, *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    blob = captured.out.encode()
    if argv[0] == "run":
        blob += (out_dir / TRANSCRIPT_NAME).read_bytes()
        blob += (out_dir / REPORT_NAME).read_bytes()
    return blob


@pytest.mark.parametrize("argv", ANALYZE + RUN, ids=" ".join)
def test_command_output_matches_its_golden_digest(argv, tmp_path, capsys):
    digest = hashlib.sha256(command_bytes(argv, tmp_path / "out", capsys)).hexdigest()
    assert digest == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("command", SCRIPTS)
def test_script_output_matches_its_golden_digest(command, monkeypatch, capsys):
    out = script_stdout(command, monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == SCRIPTS[command]
