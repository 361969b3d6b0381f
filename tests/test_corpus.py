"""Golden report digests across the configuration space.

Every case is a short run. The corpus holds every preset and dissemination
variant cut short, plus a grid of small shapes that
reaches every leader policy, every arrival process (pool mode included), the
(1,1), (4,1*) and (2,2)-with-retries quorum rules, dependency and extra
dependency probabilities, ordering overhead, both commit modes, both cut
rules, every distribution family, strategic waiting and horizon truncation.

A case's digest is the sha256 of its rendered report files (traces
included) plus the result fields the files round or leave out, at full
precision. A change that keeps behaviour keeps every digest. After an
intended behaviour change, re-pin with

    PYTHONPATH=src python tests/test_corpus.py

and paste the printed table over CORPUS.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest

from eovsim import (
    BlockCutRule,
    CommitLatencyModel,
    DisseminationStrategy,
    DistributionSpec as D,
    EndorseLatencyModel,
    LeaderPolicy,
    PeerGroupConfig,
    ScenarioConfig,
    WaitingPolicy,
    WorkloadConfig,
    presets,
)
from eovsim.metrics import render_report
from eovsim.simulate import run_scenario

REPIN = "PYTHONPATH=src python tests/test_corpus.py"

PRESET_CASES = [("blocksize-high", None), ("blocksize-low", None), ("cores-sweep", None),
                ("leader-250x300", None), ("pipeline-400x600", None),
                ("pvtdata-250x600", None), ("waiting-2peer", None)]
PRESET_CASES += [(name, v) for name in ("pvtdata-250x600", "pipeline-400x600")
                 for v in presets.DISSEMINATION_VARIANTS]

LEADERS = {"max_ht": LeaderPolicy("max_ht"), "soft1": LeaderPolicy("soft_max_ht", tau=1),
           "ranked": LeaderPolicy("ranked_list"), "all": LeaderPolicy("all")}
ARRIVALS = ("deterministic", "poisson", "pool")
QUORUMS = {"1-1": DisseminationStrategy(1, 1, False, ack_timeout=0.3),
           "4-1*": DisseminationStrategy(4, 1, True, ack_timeout=0.3),
           "2-2r2": DisseminationStrategy(2, 2, False, ack_timeout=0.3, max_retries=2)}


def _preset_case(name, variant):
    """The preset cut to 4000 transactions, or 800 in pool mode."""
    cfg = presets.preset(name, variant)
    w = cfg.workload
    if w.arrival_process == "pool":
        w = replace(w, pool_size=800)
    else:
        w = replace(w, duration=4000 / (w.num_clients * w.rate_per_client))
    return replace(cfg, workload=w), ()


def _grid_base() -> ScenarioConfig:
    return ScenarioConfig(
        seed=1,
        horizon=200.0,
        workload=WorkloadConfig(num_clients=2, rate_per_client=60.0, duration=2.0,
                                pool_size=200),
        peers=PeerGroupConfig(count=5, commit_scales=(1.0, 1.3, 0.8, 1.1, 1.6),
                              gateway_buffer=5, endorse_concurrency=3),
        cut_rule=BlockCutRule(block_size=20, timeout=0.5),
        endorse_model=EndorseLatencyModel(execute=D.exponential(0.05),
                                          overhead=D.constant(0.01),
                                          ack=D.exponential(0.15)),
        commit_model=CommitLatencyModel(vscc=D.exponential(0.01, per_tx=0.002),
                                        pvt_fetch_local=D.constant(0.01),
                                        pvt_fetch_remote=D.constant(0.04),
                                        mvcc=D.empirical((0.002, 0.004, 0.009)),
                                        block_store=D.constant(0.005),
                                        statedb=D.normal(0.02, 0.01)),
    )


def _grid_case(leader, arrival, quorum):
    """One grid shape; the remaining dimensions alternate across shapes."""
    i, j, k = list(LEADERS).index(leader), ARRIVALS.index(arrival), list(QUORUMS).index(quorum)
    base = _grid_base()
    cfg = replace(
        base,
        workload=replace(base.workload, arrival_process=arrival,
                         dependency_prob=(0.0, 0.5)[(i + j) % 2]),
        leader=LEADERS[leader],
        dissemination=QUORUMS[quorum],
        ordering_overhead=(0.0, 0.3)[(j + k) % 2],
        commit_mode=("serial", "pipelined")[(i + k) % 2],
        cut_rule=replace(base.cut_rule,
                         kind=("size_with_timeout", "dynamic_timeout")[(i + j + k) % 2]),
    )
    extra = ((), (0.2, 1.0))[(i + j + k + 1) % 2]
    return cfg, extra


def _waiting_case(arrival, tau, mode, overhead):
    base = _grid_base()
    cfg = replace(
        base,
        workload=replace(base.workload, arrival_process=arrival, pool_size=400,
                         rate_per_client=100.0, dependency_prob=0.3),
        peers=PeerGroupConfig(count=2, commit_scales=(1.0, 1.8),
                              gateway_buffer=50, endorse_concurrency=2),
        leader=LeaderPolicy("soft_max_ht", tau=tau),
        cut_rule=BlockCutRule(kind="dynamic_timeout", timeout=0.2),
        commit_mode=mode,
        commit_model=replace(base.commit_model, vscc=D.constant(0.12)),
        ordering_overhead=overhead,
        waiting=WaitingPolicy(enabled=True, tau=tau, ceiling=tau + 3,
                              boosted_mean=0.6, baseline_means=(1.0, 1.8)),
    )
    return cfg, ()


def _seeded(case, seed):
    cfg, extra = case
    return cfg.with_seed(seed), extra


def _truncated_case(leader, arrival):
    cfg, extra = _grid_case(leader, arrival, "2-2r2")
    return replace(cfg, horizon=1.5), extra


CASES = {}
for _name, _variant in PRESET_CASES:
    CASES[_name if _variant is None else f"{_name}:{_variant}"] = (
        lambda n=_name, v=_variant: _preset_case(n, v))
for _shape in itertools.product(LEADERS, ARRIVALS, QUORUMS):
    for _seed in (1, 2):
        CASES["grid-{}-{}-{}@{}".format(*_shape, _seed)] = (
            lambda s=_shape, seed=_seed: _seeded(_grid_case(*s), seed))
for _shape in itertools.product(("pool", "deterministic"), (1, 2), ("serial", "pipelined"),
                                (0.0, 0.3)):
    CASES["waiting-{}-tau{}-{}-ovh{}".format(*_shape)] = lambda s=_shape: _waiting_case(*s)
for _shape in (("max_ht", "deterministic"), ("all", "pool")):
    CASES["truncated-{}-{}".format(*_shape)] = lambda s=_shape: _truncated_case(*s)


def case_digest(name: str) -> str:
    cfg, extra = CASES[name]()
    result = run_scenario(cfg, collect_traces=True, extra_dep_probs=extra)
    h = hashlib.sha256()
    for fname, text in sorted(render_report(result).items()):
        h.update(f"{fname}\0{text}\0".encode())
    unrendered = (result.status, result.counters, sorted(result.invalid_by_prob.items()),
                  result.per_peer_commit_mean, sorted(result.summaries.items()),
                  result.throughput, result.makespan, result.last_commit_at,
                  result.eligible_multi_fraction)
    h.update(repr(unrendered).encode())
    return h.hexdigest()


CORPUS = {
    'blocksize-high': 'f4dd5bb9385c200ba67bef70cf948306fdc5743889e0dc0a7aa880944df77ba1',
    'blocksize-low': '7f1fed82a544e0a28b1deb6b91d4771c77448148be25736b8df9605fa61c07af',
    'cores-sweep': '85cbed79ad73779a60846a2f1300a087c8cb2445e011d82b32574f69d0484461',
    'leader-250x300': 'd60852a819e15ad39d95d8189e4857ca6312a0f139d9211ed7af041c94a9a972',
    'pipeline-400x600': '927f5389c08bcef813c117bcc973d2c2b809ceb01c58733a4289966f386c4ddb',
    'pvtdata-250x600': '7f9d3297b290fd1367dce3ad97a98f02974dc18635f9b42cead303522154d5e8',
    'waiting-2peer': 'a31b272c8f0a305e093b4964058e6624428bd6ce37cad11bbf08911c4c82466b',
    'pvtdata-250x600:1-1': '7f9d3297b290fd1367dce3ad97a98f02974dc18635f9b42cead303522154d5e8',
    'pvtdata-250x600:4-4': '07da74f0c4c1d9ffb951730b5b888d5287151db68ee50f616700c56a17e8282e',
    'pvtdata-250x600:4-1': '5223f8e51aaecf7ab1e3ba26a2c4da10b8ca70dfa83da3c66c49f347fac1cedc',
    'pvtdata-250x600:4-1*': 'c23604e8b47291fbc0184d1e15f385f4b01b7175caa6c42d61850f4aef16eb4b',
    'pipeline-400x600:1-1': '87049e676293cb9f18ece19f3471eb341da433fc173f8f5aa63390515e1d1ad9',
    'pipeline-400x600:4-4': '85cbed79ad73779a60846a2f1300a087c8cb2445e011d82b32574f69d0484461',
    'pipeline-400x600:4-1': '3dcecf671ed50f59993330fbb586592d723933221c441829a514b4c9b22df8dc',
    'pipeline-400x600:4-1*': '927f5389c08bcef813c117bcc973d2c2b809ceb01c58733a4289966f386c4ddb',
    'grid-max_ht-deterministic-1-1@1': '8ccd67249989c8b38fa4548e44d600a27640258fa0d474d2d4c3b1db1258edcc',
    'grid-max_ht-deterministic-1-1@2': 'b85db5b8355f9392c579a6e6518f7ed5a401784a71bc8864efff6d3e73d41ad6',
    'grid-max_ht-deterministic-4-1*@1': '25b23bd7db7e740fceaf1318d24dd242f2118e08db42162fdbc7a5f3156ea101',
    'grid-max_ht-deterministic-4-1*@2': '3f407fba321518dfbb100cf8eacf712c2ebdd163bc160b8dda15b7fd32fbeaef',
    'grid-max_ht-deterministic-2-2r2@1': '15c58f31102a601e2648bfc5ab9ac453d6749ec602778fb2c74385a6a9c4999a',
    'grid-max_ht-deterministic-2-2r2@2': '0553fb61126c14729bdce410f33b445671d57f00d40919d12836648ef8b060a0',
    'grid-max_ht-poisson-1-1@1': '41db4e66d5781187f931055e1a1f476e9be534de89a9527217d82e855ea3653b',
    'grid-max_ht-poisson-1-1@2': 'f2705355cd5910ffba9597a609b3915793c4b8454c9b45f82f80970e70cbe3f2',
    'grid-max_ht-poisson-4-1*@1': '066c7763b9d16c71af4ee24a39fc98bc5bc2b8871d2c2776727d77f74cb7e63f',
    'grid-max_ht-poisson-4-1*@2': '1263dd0593cf41ada777f11df04b1936ce67f6ba6d1d1e74a699b0918f9128fb',
    'grid-max_ht-poisson-2-2r2@1': '4aeb0ae658bb0632d730e92b0e16fc2ec1a28dc15db4dcffd269497efcab1c23',
    'grid-max_ht-poisson-2-2r2@2': '432e6eeb535dd95246238acc6a156643697f77c439a8df1bbf444aac34275f01',
    'grid-max_ht-pool-1-1@1': '50767d977925134bae6472bec5ae973a1fe2a45e7e2e4def82e0999934f2286d',
    'grid-max_ht-pool-1-1@2': 'cdcf78d5d40e98c9225269c625f08a8a931480ae0b77b0059d843e358ced42e1',
    'grid-max_ht-pool-4-1*@1': '4a8bbabfae92f34c18585035258008cf88b4f6c93f7f3321c4b81ecfccabd9da',
    'grid-max_ht-pool-4-1*@2': 'f093d602cf3e954ddee94cca4ca1425a2f91e05cce5d3a4caed7a584a036a9d2',
    'grid-max_ht-pool-2-2r2@1': 'd64460f200d69da285fc91282559b4bab8264bfdd92ba86f0c908abf9d356a34',
    'grid-max_ht-pool-2-2r2@2': '3194cd2cffa687a48aeb0f4a794a92e51ecbcf5d45677c8dd57a39b802c7940e',
    'grid-soft1-deterministic-1-1@1': '1b045ead374b31a791d29406a1e63e55398771d3f5240214eef0cc05ad205306',
    'grid-soft1-deterministic-1-1@2': '707195cbdfa5e4b0cc862c0be5de95b7f7062c703e2ea60ae71b4227fce7e217',
    'grid-soft1-deterministic-4-1*@1': '88562aaaef2bbe79b9e8b96dad5cdef8eff36837a05ee5a950da6f441b706869',
    'grid-soft1-deterministic-4-1*@2': '83587e54898cc642e779ac72306f5e9fac03a77c174c61e1a537c6249d8fb723',
    'grid-soft1-deterministic-2-2r2@1': '5c67844aa96df25d7b1922ae84c41a39955a810275b5d590e2815b749853d0cc',
    'grid-soft1-deterministic-2-2r2@2': 'd14b0d3a4b3c881f36c495242e281556ef80a7252602d641c99e41f365367cbe',
    'grid-soft1-poisson-1-1@1': 'a8d1e696aeade7e35c47e2096c114ef1c4e2d0cc2771b15e687723ed433e082a',
    'grid-soft1-poisson-1-1@2': '04de2a8ec2602cf2b5c282e81f3f1c9ff6be3483529a906a6085fcd33535eba9',
    'grid-soft1-poisson-4-1*@1': 'c77f1a261b073086e2893c8eee9c03a3cf696af41e890fbf30ebfb1f2f137dac',
    'grid-soft1-poisson-4-1*@2': 'b2de80ee65154ca58ddfa866df4f26c48fe460ea2bd79d92c1c1bd65d0974aae',
    'grid-soft1-poisson-2-2r2@1': 'abc7fbc425c1ff6664c993a5fe17d50e5f72d0de8216a5db1734a43e1eb63256',
    'grid-soft1-poisson-2-2r2@2': 'd7d58efd17f3a729fe399a1b4ca6eff71389a6bfafc8b4d4f080c5ad52ec8f84',
    'grid-soft1-pool-1-1@1': 'c0038483c670814df6520d5731cbd61a11498760090d1d6616ddfbc0332767e5',
    'grid-soft1-pool-1-1@2': '134b10fa0f1920bc18b77ab54e455ce364ddcfb1129796c5eebfd98a63d6fc35',
    'grid-soft1-pool-4-1*@1': 'e18d4dd8f71ab6e3615cd0c741cbb78c7b210283e3f4d33ad871e4b8ca47dc32',
    'grid-soft1-pool-4-1*@2': '5412f9d8c0d3f65a6a3f5fc6d89a57e39a1d77cd606d5d084869926fabf380c5',
    'grid-soft1-pool-2-2r2@1': '893b889bbacaabc88485548eafe3233086860a85692aba2d8b486f0ca93b9b26',
    'grid-soft1-pool-2-2r2@2': '94856cdea37449d4641b50abd63582f754bc9fab67e7d92bd1875c92e80e8b89',
    'grid-ranked-deterministic-1-1@1': '8561c7451d0deaa16635bb9d01f64d2db7f7ebba8ecbe3f22497e9ebacda06ec',
    'grid-ranked-deterministic-1-1@2': 'edcf373f265446eb5ab3a8971fad383d2f658f5f4dfa640eb72fff21ba775c09',
    'grid-ranked-deterministic-4-1*@1': '2b7429fa0a5bd1b35aa2797d7783ea8a8cc9175813d9f6ff27f1ce9d991a7d70',
    'grid-ranked-deterministic-4-1*@2': '785615a4a8ed9918e87ddc390277cd5825aa2f4c631e288480b9d143ff93d8db',
    'grid-ranked-deterministic-2-2r2@1': '4ff572c7a0e0451d59700700dd8bd98dbfb1ad6faf0a6902f133192c45aeda7e',
    'grid-ranked-deterministic-2-2r2@2': '3c3e03f3eeb6b7650c29cefe2f7b303c58e96b58c5a7024c2599aba3966b4c34',
    'grid-ranked-poisson-1-1@1': '48dc23fad80dcf82dda2a04ad6b0e2a8b429b0fada1825eacd7a6d62ddd00c15',
    'grid-ranked-poisson-1-1@2': 'ff8cb460fe342d7664a96c3e6f6d53f1aae28dfd9c6f16ca46c9a5d5c4116322',
    'grid-ranked-poisson-4-1*@1': '9f70639c3da31df024fd456ac7945855dc6fbe288fcd0f33e901d07768df46ae',
    'grid-ranked-poisson-4-1*@2': 'fb03fb7ca0870fde34464acdeb0ad237b1e9008b6caa1d58f1824b15d44574b4',
    'grid-ranked-poisson-2-2r2@1': '8f0f671b3a57aa01e0cc5096470b9f56744a02dd53edf74b476a9d89819b1747',
    'grid-ranked-poisson-2-2r2@2': '1d869b19d288d80d1e3baea23c6f568c7a3f25ddf8bc1eaa90d2b6debf37435c',
    'grid-ranked-pool-1-1@1': 'f6088cfde64fea1db2a438b6e3531e18d82e7679717c0acbdf83a87cb4c73c53',
    'grid-ranked-pool-1-1@2': '6425ddb9ffa5695f57c3dccad2b3ce950fb0c16c3b229cea3ade13cb20cf7944',
    'grid-ranked-pool-4-1*@1': 'e1a47bb6949ab50fdda64a516f0f04832686a1e33f1f0004f950f46b9da2f883',
    'grid-ranked-pool-4-1*@2': '4792d0c7557862969eee8baa0c9de656e1dec949c3c0dd15cfc252d6c8cbc86b',
    'grid-ranked-pool-2-2r2@1': 'e2f08e916f09d610f105573d4dcaa143a35a7f04adf47035f59562e8321c43ca',
    'grid-ranked-pool-2-2r2@2': '23399b66cd6b8454425b1e6803ed2e5b2d4c719eeadbf27d5831ad10e913adf4',
    'grid-all-deterministic-1-1@1': '47df47f1593480f2d36e8b0ffe9990108eaeca3eb42a1022a335a5d6278bc3c8',
    'grid-all-deterministic-1-1@2': '12357ae2eef60a9b6f60ce2760c4eb97bba683109921edeb5d4b7d07aa6163d0',
    'grid-all-deterministic-4-1*@1': 'f5c73eb44e837bfcdb7b6e750f0c37f3c6509b46eb26557db54f16a36a4ee551',
    'grid-all-deterministic-4-1*@2': '90a825c35956bd0afa6ecf2696db1033f5a79a27084de28b389adada1709dbf3',
    'grid-all-deterministic-2-2r2@1': '102783822e4963de439d65398ec042467b5d084eb3b9737b06f06e14c911ce67',
    'grid-all-deterministic-2-2r2@2': 'dafcff9018ac0ca67089c8624dff48059c6f1fdae13048b00ceaa24809bb4455',
    'grid-all-poisson-1-1@1': '0c809b61968513bcdd6a53cc092d982d934017c63292a47dbea9404f89c144b4',
    'grid-all-poisson-1-1@2': 'f54030ca656334ea750b3350b1e64ac4252ddd695638cc4f704bdf461aacac9c',
    'grid-all-poisson-4-1*@1': '4c1f277756cb804e619c39ac61a4c9ae062f00de67a020b646e8143167ddb9d6',
    'grid-all-poisson-4-1*@2': '4ca944d56c664ba91b172140ee0c1251a2842ebc3aa010fbe46553266df46fa7',
    'grid-all-poisson-2-2r2@1': '42b244c251a41921f07aa4a77328c169815741457043b63e2bb1f08d9dec393b',
    'grid-all-poisson-2-2r2@2': '7d53afba3d7745310fa06718a2c947f69ab2bad935c7c7651a97da858b57068c',
    'grid-all-pool-1-1@1': 'd4c6705e8803a8c4cd9ebe5defebe188cbcc97dbfe93592e2acf8888975fe86d',
    'grid-all-pool-1-1@2': 'd9acee349295eda4ec471f1601543f5c6d5c11bdcb1d6decdba910bbcfb9ffd2',
    'grid-all-pool-4-1*@1': 'c481847d584be2561d1ea2a04ee5351ed300a56fe55b62bfeb8a48ae8fd38b7f',
    'grid-all-pool-4-1*@2': 'd7e63add13078e5003bb0a4926708a1357f77516443c098ea0e146d7c0779289',
    'grid-all-pool-2-2r2@1': 'de2cf3108eb565b7b5d970ead020eca55877a0b7336baa70e63de6ae0d4c0d7f',
    'grid-all-pool-2-2r2@2': '24a3d34e0406dee45db272470430a5a4175e77aadc9f67235defd8df18ccf38c',
    'waiting-pool-tau1-serial-ovh0.0': 'fb629a66ebb130d25583390eef17273cd629f548a2f855b677ccb1b3f040705e',
    'waiting-pool-tau1-serial-ovh0.3': '5cba9280056b062ec8a1c38eccc6d9baf9d91be86db6a41ce8f64ea03773d48a',
    'waiting-pool-tau1-pipelined-ovh0.0': 'a0af877aa672a414f616665d8a93591b924dfd214ce9337c284801646fd7838b',
    'waiting-pool-tau1-pipelined-ovh0.3': 'd87ce81d7ad6194b797b304c2bbe97ae68148782d02c05adebb3d9eaac01aff0',
    'waiting-pool-tau2-serial-ovh0.0': '7a0dd87bd57664cd175cbadd2eda0c74499426ddc7c2a767604802191157b0a5',
    'waiting-pool-tau2-serial-ovh0.3': '061f01f5cc8b7245238eb8ba3a1ea9ad3301dc45c2770283aad04741d4ba3a38',
    'waiting-pool-tau2-pipelined-ovh0.0': 'dff34b9bac11225ee330517d2bde2c1c30fe32356b6f712472e1c5cd2a6e7b0b',
    'waiting-pool-tau2-pipelined-ovh0.3': '35df1f285127f4dfddab36a2cd461e2c53ec015931630459dbb3ae2ce09a1436',
    'waiting-deterministic-tau1-serial-ovh0.0': 'f5d96732de56c159ac0cc600067faaaa7561db312717d1b842472efd66961f85',
    'waiting-deterministic-tau1-serial-ovh0.3': '1bd6d2e07e9db7df833df2fb0b7e913e2d10d65acfd655d8935a5303a599e180',
    'waiting-deterministic-tau1-pipelined-ovh0.0': 'c3af457a0d9120f67d28e6e19c89aeb849c5fe51679b34a0c65a20e94cbdaea0',
    'waiting-deterministic-tau1-pipelined-ovh0.3': '6c129471fd92aac99639bd0e2bf2966e772693c592538b0495a1293e50306e37',
    'waiting-deterministic-tau2-serial-ovh0.0': '51bf721dffeda2c10c2ff8be4a277d1a9a3a3176aa30810331b743291dddf3d7',
    'waiting-deterministic-tau2-serial-ovh0.3': '4228495c5f15b28ebd575a982748fdccd9c720226bcff22ac4b96bf6f17238dd',
    'waiting-deterministic-tau2-pipelined-ovh0.0': 'c7f46ec9539454573014458e6856cc4c0cadcf53bb073f45d51d0d6b4ef43f4d',
    'waiting-deterministic-tau2-pipelined-ovh0.3': '03e89926c1a75668affba3ff262773eba65212df19bd19b195a260cb83decb54',
    'truncated-max_ht-deterministic': '3160961fbb58fb5ce24e4adb19ca3f552bcc6550e74c5a63eeb5aeb3e220b934',
    'truncated-all-pool': '6cc38d7eabc0bbac08ba4407f9373fe7daf72b66844617ebf9b713f638fcbae2',
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest_unchanged(name):
    got = case_digest(name)
    assert got == CORPUS.get(name), (
        f"report digest of corpus case {name!r} changed: now {got}\n"
        f"re-pin every case with: {REPIN}")


if __name__ == "__main__":
    print("CORPUS = {")
    for case in CASES:
        print(f"    {case!r}: {case_digest(case)!r},")
    print("}")
