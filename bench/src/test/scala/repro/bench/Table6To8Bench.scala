package repro.bench

import repro.data.Datasets
import repro.tables.{BenchContext, DatasetState, Tables}

/** Tables 6–8: index sizes, filtering false positives, Glove decomposition. */
class Table6To8Bench extends BenchSuite {

  test("Table 6: index size — graphs cost more memory than scan-based indexes, all O(nK)") {
    val t @ (_, _, rows) = Tables.table6(spark, scale)
    printTable(t)
    rows.foreach { r =>
      val name = r.head
      val Seq(nested, snif, dolphin, vptree, nsw, kgraph, basic, mrpg) =
        r.tail.map(_.toDouble)
      assert(nested == 0.0)
      assert(snif > 0 && dolphin > 0 && vptree > 0)
      // the paper: proximity graphs need more memory than SNIF/VP-tree
      assert(Seq(nsw, kgraph, basic, mrpg).min > snif, name)
      // MRPG adds reachability links over KGraph (and exact lists)
      assert(mrpg >= kgraph, name)
      // but stays within a small factor (O(nK) with K' = 4K on m objects)
      assert(mrpg <= 8 * kgraph + 1.0, name)
    }
  }

  test("Table 7: false positives — MRPG < KGraph; monotonic paths pay off") {
    val t @ (_, _, rows) = Tables.table7(spark, scale)
    printTable(t)
    val nsw = rows.map(_(1).toLong)
    val kgraph = rows.map(_(2).toLong)
    val basic = rows.map(_(3).toLong)
    val mrpg = rows.map(_(4).toLong)
    // paper shape: MRPG(-basic) reduce f vs KGraph and NSW on aggregate and
    // on (almost) every dataset
    assert(mrpg.sum < kgraph.sum, s"f(MRPG)=${mrpg.sum} !< f(KGraph)=${kgraph.sum}")
    assert(basic.sum < kgraph.sum)
    assert(mrpg.sum < nsw.sum)
    val betterThanKGraph = rows.indices.count(i => mrpg(i) <= kgraph(i))
    assert(betterThanKGraph >= 5, s"MRPG beats KGraph on only $betterThanKGraph/7 datasets")
  }

  test("Table 8: Glove decomposition — MRPG eliminates nearly all verification time") {
    val t @ (_, _, rows) = Tables.table8(spark, scale)
    printTable(t)
    val verify = rows(1).tail.map(secCell) // NSW, KGraph, MRPG-basic, MRPG
    // the §5.5 shortcut: MRPG's verification is far below MRPG-basic's
    assert(verify(3) <= 0.5 * verify(2) + 0.05,
      s"MRPG verification ${verify(3)}s vs MRPG-basic ${verify(2)}s")
    // and below the non-monotonic graphs too
    assert(verify(3) <= verify(0) && verify(3) <= verify(1))
  }

  test("candidate accounting matches Table 7 on every dataset") {
    BenchContext.allStates(spark, scale).foreach { st =>
      DatasetState.GraphNames.foreach { g =>
        val res = st.dod(g)
        val verifiedOutliers = res.outliers.length - res.directOutliers
        assert(res.candidates == res.falsePositives + verifiedOutliers,
          s"${st.spec.name}/$g")
      }
    }
  }

  test("MRPG decides most outliers directly via exact K'-NN lists (§5.5)") {
    val st = BenchContext.state(spark, Datasets.glove, scale)
    val res = st.dod("MRPG")
    assert(res.directOutliers > 0)
    assert(res.directOutliers >= (0.5 * res.outliers.length).toInt,
      s"only ${res.directOutliers} of ${res.outliers.length} outliers decided directly")
  }
}
