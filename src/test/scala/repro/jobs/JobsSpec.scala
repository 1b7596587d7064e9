package repro.jobs

import repro.SparkSpec

/** The spark-submit entrypoints' table functions at a tiny scale (their
  * `main`s only add [[JobSession]] and printing around these), and the
  * `main`s' handling of a session that is already running.
  */
class JobsSpec extends SparkSpec {

  private val tiny = 0.03

  private val jobs: Seq[(String, TableJob)] = Seq(
    "Table1Job" -> Table1Job,
    "Table2Job" -> Table2Job,
    "Table3Job" -> Table3Job,
    "Table4Job" -> Table4Job,
    "Table5bJob" -> Table5bJob,
    "Table6Job" -> Table6Job,
    "Table7Job" -> Table7Job,
    "Table8Job" -> Table8Job,
  )

  for ((name, job) <- jobs) {
    test(s"$name produces a titled, rectangular table") {
      val (title, headers, rows) = job.table(spark, tiny)
      assert(title.startsWith("Table "))
      assert(headers.nonEmpty && rows.nonEmpty)
      rows.foreach(r => assert(r.length == headers.length))
    }
  }

  test("Table5Job checks exactness and returns the running-time table") {
    val (title, headers, rows) = Table5Job.table(spark, tiny)
    assert(title.startsWith("Table 5"))
    assert(headers.length == 9)
    assert(rows.length == 7)
  }

  test("BuildProfileJob with local starts no Spark job and leaves the session alone") {
    val (_, jobs) = countingJobs(BuildProfileJob.main(Array("words", "0.02", "local")))
    assert(jobs == 0)
    assert(!spark.sparkContext.isStopped)
  }

  test("BuildProfileJob's MRPG line prints the bounded loops' reports") {
    val out = new java.io.ByteArrayOutputStream()
    Console.withOut(out)(BuildProfileJob.main(Array("words", "0.02", "local")))
    val mrpg = out.toString.linesIterator.filter(_.startsWith("MRPG")).toSeq
    assert(mrpg.size == 1, out.toString)
    assert(raw"capHits=\d+ unreached=\d+".r.findFirstIn(mrpg.head).nonEmpty, mrpg.head)
  }

  test("BuildProfileJob's graph line reports the MRPG's shape and the bounded loops") {
    val out = new java.io.ByteArrayOutputStream()
    Console.withOut(out)(BuildProfileJob.main(Array("words", "0.02", "local")))
    val graph = out.toString.linesIterator.filter(_.startsWith("graph")).toSeq
    assert(graph.size == 1, out.toString)
    assert(raw"links=\d+ degree min=\d+ mean=[\d.]+ p99=\d+ max=\d+ pivots=\d+ exactLists=\d+ sizeBytes=\d+ detourCapHits=\d+ connectUnreached=\d+"
      .r.findFirstIn(graph.head).nonEmpty, graph.head)
  }

  test("BuildProfileJob's detect line reports MRPG's candidates and cut walks") {
    val out = new java.io.ByteArrayOutputStream()
    Console.withOut(out)(BuildProfileJob.main(Array("words", "0.02", "local")))
    val detect = out.toString.linesIterator.filter(_.startsWith("detect")).toSeq
    assert(detect.size == 1, out.toString)
    assert(raw"MRPG r=\S+ k=\d+ .*candidates=\d+ falsePos=\d+ .*reused=\d+ cutWalks=\d+".r.findFirstIn(detect.head).nonEmpty, detect.head)
  }

  test("job mains run in the suite's session and leave it running") {
    val sc = spark.sparkContext
    Table1Job.main(Array(tiny.toString))
    assert(!sc.isStopped)
    val (_, jobs) = countingJobs(BuildProfileJob.main(Array("words", "0.02", "spark")))
    assert(jobs > 0) // the builds fanned out through the suite's session
    assert(!sc.isStopped)
  }

  test("BuildProfileJob's dataset lookup rejects unknown names") {
    assertThrows[IllegalArgumentException](repro.data.Datasets.byName("not-a-dataset"))
  }
}
