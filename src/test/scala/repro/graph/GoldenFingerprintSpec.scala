package repro.graph

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.SparkSpec
import repro.core.{CountingSpace, LocalRunner, MetricSpace, ParRunner, SparkRunner, StringSpace, VectorSpace}
import repro.data.{DatasetSpec, Datasets}

/** Golden fingerprints of every dataset space and every graph build.
  *
  * For each of the 7 dataset specs at scale 0.05 (n = 200–800), a SHA-256
  * prefix pins the space's raw data, and another pins each build's output:
  * `adj` in iteration order, `isPivot`, `exactLists` and `exactK`. Next to
  * the hash stand the build's distance evaluations and, for MRPG and
  * MRPG-basic, the `BuildStats` link counts (Connect / Detours / removed).
  * MRPG, MRPG-basic and KGraph must match under both `LocalRunner(4)` and
  * `SparkRunner(spark, 4)`; NSW runs on the driver only, so once.
  *
  * A change to the data layout or the inside of a build step must leave
  * every line as it is. A line that moves means the output moved: a
  * deliberate change of output updates the constants and says why.
  */
class GoldenFingerprintSpec extends SparkSpec {

  private val Scale = 0.05

  // captured at e7b4027; the MRPG and MRPG-basic evaluation counts re-captured
  // when Remove-Detours and the VP-tree seeding began to evaluate each
  // distance once, and those of MRPG, MRPG-basic and KGraph when the local
  // join began to read the distances its chunk knows (hashes and link counts
  // unchanged both times); the MRPG-basic hashes re-captured when its graph
  // took exactK = 0 (adjacency, pivots and exact lists unchanged)
  private val golden: Map[String, String] = Map(
    "deep space" -> "n=800 4fd701ff4fbfa9ad",
    "deep NSW" -> "c0a1b408aeb7d9f6 evals=200899",
    "deep MRPG" -> "7472adb720836a1a evals=417301 links=9380/21733/9136",
    "deep MRPG-basic" -> "e596ced0fed6f5c1 evals=401772 links=5891/9355/6296",
    "deep KGraph" -> "43d7872e16864ff5 evals=425686",
    "glove space" -> "n=600 a7892c4e5a2b6e4c",
    "glove NSW" -> "209e3418c23bfe3d evals=113983",
    "glove MRPG" -> "c78dc47cb37f8d4c evals=300609 links=7472/15634/7700",
    "glove MRPG-basic" -> "8292ea2de8872afe evals=291181 links=3999/4547/3942",
    "glove KGraph" -> "2bc2f95fedd24a90 evals=298613",
    "hepmass space" -> "n=700 0808555294f20b12",
    "hepmass NSW" -> "006127f065454aaf evals=155810",
    "hepmass MRPG" -> "f2d974c4ee92c63e evals=347408 links=8024/17107/7693",
    "hepmass MRPG-basic" -> "ab5479ca3b00bf54 evals=332202 links=4545/5081/4548",
    "hepmass KGraph" -> "2c996a93bbdc04bf evals=358539",
    "mnist space" -> "n=300 8cf6d4ab84e3c894",
    "mnist NSW" -> "118c7c8c20a634b6 evals=37519",
    "mnist MRPG" -> "231b2c08ef770148 evals=111966 links=4803/3890/2631",
    "mnist MRPG-basic" -> "f45f4896a5800675 evals=110059 links=1579/903/1756",
    "mnist KGraph" -> "61937a682dfc8758 evals=120749",
    "pamap2 space" -> "n=600 5e57737318e42fdc",
    "pamap2 NSW" -> "073c358560fdb836 evals=151386",
    "pamap2 MRPG" -> "d69e428a4972402b evals=489392 links=11170/9749/7923",
    "pamap2 MRPG-basic" -> "64ffadb9f6e52831 evals=486170 links=6082/6777/6457",
    "pamap2 KGraph" -> "c70e634a2aba795b evals=568715",
    "sift space" -> "n=500 629ad9e4f0a4cc2d",
    "sift NSW" -> "2612ee668fc0336a evals=90052",
    "sift MRPG" -> "681054fbbb8f0343 evals=234353 links=6472/12289/5623",
    "sift MRPG-basic" -> "a3edcf04916c4f18 evals=231183 links=3138/7214/3918",
    "sift KGraph" -> "abc90914f2db5ac7 evals=235097",
    "words space" -> "n=200 a8d087b095c8f8a6",
    "words NSW" -> "96d859fc45faaae7 evals=18001",
    "words MRPG" -> "bdbf7e6da66400c6 evals=79588 links=4919/668/1482",
    "words MRPG-basic" -> "3a4801cd68f33197 evals=79588 links=1823/608/1210",
    "words KGraph" -> "868eef5c5c0ef261 evals=95847",
  )

  /** Accumulates values into one SHA-256 digest. */
  private final class Fingerprint {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)

    def long(x: Long): Unit = { buf.clear(); buf.putLong(x); md.update(buf.array()) }
    def ints(a: Array[Int]): Unit =
      if (a == null) long(-1L) else { long(a.length.toLong); a.foreach(x => long(x.toLong)) }
    def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def spaceLine(space: MetricSpace): String = {
    val fp = new Fingerprint
    space match {
      case vs: VectorSpace =>
        vs.points.foreach { p => fp.long(p.length.toLong); p.foreach(x => fp.long(java.lang.Double.doubleToRawLongBits(x))) }
      case ss: StringSpace =>
        ss.words.foreach { w => fp.long(w.length.toLong); w.foreach(c => fp.long(c.toLong)) }
    }
    s"n=${space.n} ${fp.hex}"
  }

  private def graphLine(g: ProximityGraph, evals: Long, links: String): String = {
    val fp = new Fingerprint
    g.adj.foreach(fp.ints)
    g.isPivot.foreach(b => fp.long(if (b) 1L else 0L))
    if (g.exactLists == null) fp.long(-2L) else g.exactLists.foreach(fp.ints)
    fp.long(g.exactK.toLong)
    s"${fp.hex} evals=$evals$links"
  }

  /** The build `name` of `spec`, with the parameters the tables use
    * (`runner` is unused by NSW).
    */
  private def buildLine(spec: DatasetSpec, name: String, runner: ParRunner): String = {
    val space = new CountingSpace(spec.space(Scale))
    name match {
      case "MRPG" | "MRPG-basic" =>
        val (g, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed, basic = name == "MRPG-basic")
        graphLine(g, space.evaluations,
          s" links=${st.linksAddedConnect}/${st.linksAddedDetours}/${st.linksRemoved}")
      case "KGraph" =>
        graphLine(KGraphBuilder.build(space, spec.graphK, runner, seed = spec.seed), space.evaluations, "")
      case "NSW" =>
        graphLine(NSW.build(space, f = math.max(2, spec.graphK / 2), seed = spec.seed), space.evaluations, "")
    }
  }

  /** Every `(key, line)` whose line differs from its golden value, reported
    * together in the form the `golden` map takes.
    */
  private def assertGolden(lines: Seq[(String, String)]): Unit = {
    val moved = lines.filterNot { case (key, line) => golden.get(key).contains(line) }
    if (moved.nonEmpty)
      fail(moved.map { case (key, line) => s""""$key" -> "$line",""" }.mkString("fingerprints moved:\n", "\n", ""))
  }

  private val runners: Seq[(String, () => ParRunner)] =
    Seq("LocalRunner(4)" -> (() => new LocalRunner(4)), "SparkRunner(4)" -> (() => new SparkRunner(spark, 4)))

  for (spec <- Datasets.all) {
    test(s"${spec.name}: the space and its NSW graph match their golden fingerprints") {
      assertGolden(Seq(
        s"${spec.name} space" -> spaceLine(spec.space(Scale)),
        s"${spec.name} NSW" -> buildLine(spec, "NSW", new LocalRunner(1)),
      ))
    }

    for ((runnerName, runner) <- runners)
      test(s"${spec.name} under $runnerName: MRPG, MRPG-basic and KGraph match their golden fingerprints") {
        assertGolden(Seq("MRPG", "MRPG-basic", "KGraph").map(name =>
          s"${spec.name} $name" -> buildLine(spec, name, runner())))
      }
  }
}
