package repro.tables

import repro.SparkSpec
import repro.data.Datasets

/** Harness plumbing at a tiny scale (full-scale runs live in bench/). */
class TablesSpec extends SparkSpec {

  private val tiny = 0.03

  test("TableFmt renders an aligned table with separator") {
    val s = TableFmt.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = s.split("\n")
    assert(lines.head == "== T ==")
    assert(lines(1).contains("a") && lines(1).contains("bb"))
    assert(lines(2).forall(c => "|-".contains(c)))
    assert(lines.length == 5)
  }

  test("TableFmt formatters") {
    assert(TableFmt.sec(2500) == "2.50")
    assert(TableFmt.mb(1048576) == "1.00")
  }

  test("BenchContext memoizes dataset state per (name, scale)") {
    val a = BenchContext.state(spark, Datasets.words, tiny)
    val b = BenchContext.state(spark, Datasets.words, tiny)
    assert(a eq b)
    val c = BenchContext.state(spark, Datasets.words, tiny / 2)
    assert(!(a eq c))
  }

  test("table1 has a row per dataset with the declared metric") {
    val (_, headers, rows) = Tables.table1(spark, tiny)
    assert(headers.head == "Dataset")
    assert(rows.length == Datasets.all.length)
    assert(rows.map(_.last).toSet == Set("L2", "Angular", "L1", "L4", "Edit"))
  }

  test("table2 reports parseable outlier ratios") {
    val (_, _, rows) = Tables.table2(spark, tiny)
    rows.foreach { row =>
      val ratio = row(3).stripSuffix("%").toDouble
      assert(ratio >= 0.0 && ratio <= 100.0)
    }
  }

  test("DatasetState caches graphs and DOD runs") {
    val st = BenchContext.state(spark, Datasets.words, tiny)
    val g1 = st.graph("KGraph")
    val g2 = st.graph("KGraph")
    assert(g1 eq g2)
    val d1 = st.dod("KGraph")
    val d2 = st.dod("KGraph")
    assert(d1 eq d2)
    for (a <- DatasetState.Algorithms) assert(st.detection(a) eq st.detection(a), a)
    assert(st.detection("MRPG").value.indexBytes == st.graph("MRPG").graph.sizeBytes)
  }

  test("DatasetState DOD results are exact for all four graphs (tiny words)") {
    val st = BenchContext.state(spark, Datasets.words, tiny)
    for (g <- DatasetState.GraphNames) {
      assert(st.dod(g).outliers.toSeq == st.truth.toSeq, g)
    }
  }

  test("tables 3/6/7 have one row per dataset and the right column count (tiny)") {
    // words-only check would skip the cache; use a single tiny dataset state
    // for every dataset to keep this fast
    val (_, h3, r3) = Tables.table3(spark, tiny)
    assert(h3.length == 5 && r3.length == 7)
    val (_, h6, r6) = Tables.table6(spark, tiny)
    assert(h6.length == 9 && r6.length == 7)
    val (_, h7, r7) = Tables.table7(spark, tiny)
    assert(h7.length == 5 && r7.length == 7)
  }

  test("tables 5/5b/6 have one column per algorithm, in Table 5's order") {
    val expected = "Dataset" +: DatasetState.Algorithms
    assert(expected == Seq("Dataset", "Nested-loop", "SNIF", "DOLPHIN", "VP-tree",
      "NSW", "KGraph", "MRPG-basic", "MRPG"))
    val tables = Seq(Tables.table5(spark, tiny), Tables.table5b(spark, tiny), Tables.table6(spark, tiny))
    for ((title, headers, _) <- tables) assert(headers == expected, title)
  }

  test("exactnessViolations is empty at tiny scale") {
    assert(Tables.exactnessViolations(spark, tiny).isEmpty)
  }

  test("tables 4/8 decompose Glove by step/phase") {
    val (_, h4, r4) = Tables.table4(spark, tiny)
    assert(h4 == Seq("Step", "KGraph", "MRPG-basic", "MRPG"))
    assert(r4.map(_.head) == Seq("NNDescent(+)", "Connect-SubGraphs", "Remove-Detours", "Remove-Links"))
    val (_, h8, r8) = Tables.table8(spark, tiny)
    assert(h8 == Seq("Phase", "NSW", "KGraph", "MRPG-basic", "MRPG"))
    assert(r8.map(_.head) == Seq("Filtering", "Verification"))
  }
}
