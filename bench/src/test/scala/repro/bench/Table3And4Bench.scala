package repro.bench

import repro.data.Datasets
import repro.tables.{BenchContext, Tables}

/** Tables 3–4: pre-processing times and the Glove decomposition. */
class Table3And4Bench extends BenchSuite {

  test("Table 3: pre-processing time — KGraph-family parallel builds beat sequential NSW") {
    val t @ (_, _, rows) = Tables.table3(spark, scale)
    printTable(t)
    assert(rows.length == 7)
    val nsw = rows.map(r => secCell(r(1)))
    val kgraph = rows.map(r => secCell(r(2)))
    val basic = rows.map(r => secCell(r(3)))
    val mrpg = rows.map(r => secCell(r(4)))
    // paper shape: NSW's sequential incremental build is the slowest overall
    assert(nsw.sum > kgraph.sum, s"NSW total ${nsw.sum}s vs KGraph ${kgraph.sum}s")
    assert(nsw.sum > mrpg.sum, s"NSW total ${nsw.sum}s vs MRPG ${mrpg.sum}s")
    // MRPG costs more than MRPG-basic (exact K'-NN vs exact K-NN) but the
    // pipeline stays in the same ballpark as KGraph (within ~4x overall)
    assert(mrpg.sum >= 0.8 * basic.sum)
    assert(mrpg.sum <= 4.0 * kgraph.sum + 10.0)
  }

  test("Table 4: Glove decomposition — NNDescent+ beats NNDescent; refinements are secondary") {
    val t @ (_, _, rows) = Tables.table4(spark, scale)
    printTable(t)
    val nnKGraph = secCell(rows(0)(1))
    val nnBasic = secCell(rows(0)(2))
    val nnFull = secCell(rows(0)(3))
    // wall-clock swings with host CPU contention — only a generous sanity
    // bound here; the real §5.1 claim is asserted on distance counts below
    assert(nnBasic < nnKGraph * 4.0 + 5.0,
      s"NNDescent+ (basic) ${nnBasic}s wildly above NNDescent ${nnKGraph}s")
    assert(nnFull < nnKGraph * 4.0 + 5.0)
    // Connect-SubGraphs and Remove-Links are cheap relative to the total
    val st = BenchContext.state(spark, Datasets.glove, scale)
    val stats = st.graph("MRPG").stats.get
    assert(stats.connectMs <= stats.totalMs / 2)
    assert(stats.removeLinksMs <= stats.totalMs / 2)
  }

  test("NNDescent+ saves distance evaluations over NNDescent at bench scale (Glove)") {
    // deterministic version of the §5.1 claim behind Table 4 — wall clock is
    // noisy under host contention, distance counts are not
    import repro.graph.{MRPG, NNDescent, NNDescentConfig}
    val st = BenchContext.state(spark, Datasets.glove, scale)
    val k = st.spec.graphK
    def dists(cfg: NNDescentConfig): Long = {
      val c0 = st.countingSpace.evaluations
      NNDescent.build(st.space, cfg, st.runner)
      st.countingSpace.evaluations - c0
    }
    val plainCfg = NNDescentConfig(k, vpInit = false, skipUnchanged = false, seed = st.spec.seed)
    val plusCfg = plainCfg.copy(vpInit = true, skipUnchanged = true)
    val plain = dists(plainCfg)
    val plus = dists(plusCfg)
    // with MRPG's exact K'-NN stage, searched on NNDescent+'s VP-tree
    val plusWithExact = dists(plusCfg.copy(exactListSize = MRPG.KPrimeFactor * k,
      exactCount = MRPG.defaultExactCount(st.space.n)))
    println(f"NNDescent ${plain / 1e6}%.3fM dists vs NNDescent+ ${plus / 1e6}%.3fM dists, " +
      f"${plusWithExact / 1e6}%.3fM with the exact K'-NN stage")
    assert(plus < plain,
      s"NNDescent+ used $plus distance evals vs NNDescent $plain")
    assert(plusWithExact < plain,
      s"NNDescent+ with the exact K'-NN stage used $plusWithExact distance evals vs NNDescent $plain")
  }

  test("MRPG pipelines record non-trivial structural work on every dataset") {
    BenchContext.allStates(spark, scale).foreach { st =>
      val stats = st.graph("MRPG").stats.get
      assert(stats.linksAddedConnect > 0, st.spec.name)
      assert(stats.iterations >= 1, st.spec.name)
    }
  }
}
