package repro.core

import org.apache.spark.{SparkException, SparkTestHooks}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.SparkSpec

/** Range fan-out correctness: local and Spark runners agree (chunk results
  * in the same order), chunking covers [0, n) exactly once, the id fan-out
  * returns results aligned with its ids, shared handles live until their
  * release, keyed handles live until another key replaces them and no
  * handle on them is held, and a failing chunk frees its call's broadcast.
  */
class ParRunnerSpec extends SparkSpec {

  private def sumOfSquares(runner: ParRunner, n: Int): Long =
    runner.runWithData(n, ())((_, s, e) => (s until e).map(i => i.toLong * i).sum).sum

  test("LocalRunner covers the range exactly (several n / parts combinations)") {
    for (n <- Seq(0, 1, 7, 100, 1001); parts <- Seq(1, 3, 8, 200)) {
      val runner = new LocalRunner(parts)
      val ids = runner.runWithData(n, ())((_, s, e) => (s until e).toArray).flatten
      assert(ids.sorted.toSeq == (0 until n), s"n=$n parts=$parts")
    }
  }

  test("SparkRunner equals LocalRunner on an aggregate") {
    for (n <- Seq(1, 64, 500)) {
      assert(sumOfSquares(new SparkRunner(spark, 8), n) == sumOfSquares(new LocalRunner(8), n))
    }
  }

  test("SparkRunner passes broadcast data to every chunk") {
    val data = Array.tabulate(100)(_ * 3)
    val runner = new SparkRunner(spark, 4)
    val res = runner.runWithData(100, data)((d, s, e) => (s until e).map(d(_)).sum).sum
    assert(res == data.sum)
  }

  test("chunks are deterministic — two runs return chunk results in the same order") {
    val runner = new LocalRunner(5)
    val a = runner.runWithData(97, ())((_, s, e) => (s, e))
    val b = runner.runWithData(97, ())((_, s, e) => (s, e))
    assert(a == b)
  }

  test("SparkRunner returns chunk results in LocalRunner's order") {
    for (n <- Seq(2, 97, 1000); parts <- Seq(2, 4, 8)) {
      val viaSpark = new SparkRunner(spark, parts).runWithData(n, ())((_, s, e) => (s, e))
      val local = new LocalRunner(parts).runWithData(n, ())((_, s, e) => (s, e))
      assert(viaSpark == local, s"n=$n parts=$parts")
    }
  }

  test("mapIds returns results aligned with the ids under both runners") {
    val ids = Array.tabulate(301)(i => (i * 7) % 301)
    for (runner <- Seq(new LocalRunner(5), new SparkRunner(spark, 5))) {
      assert(runner.mapIds(ids, 3)((m, id) => id * m).toSeq == ids.map(_ * 3).toSeq)
      assert(runner.select(ids, ())((_, id) => id % 2 == 0).toSeq == ids.filter(_ % 2 == 0).toSeq)
    }
  }

  test("mapIds deals the ids to chunks in a fixed random order") {
    def dealtOrder(): Seq[Int] = {
      val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
      new LocalRunner(4).mapIds(Array.range(0, 1000), ())((_, id) => { seen += id; () })
      seen.toSeq
    }
    val order = dealtOrder()
    assert(order.sorted == (0 until 1000))
    assert(order != (0 until 1000))
    assert(dealtOrder() == order)
    // the deal order ParRunner.ShuffleSeed gives; a change here moves work
    // between chunks in every run
    assert(order.take(12) == Seq(400, 507, 656, 44, 934, 827, 167, 966, 60, 996, 682, 527))
  }

  test("zero-length range returns no chunks") {
    assert(new LocalRunner(4).runWithData(0, ())((_, s, e) => (s, e)).isEmpty)
    assert(new SparkRunner(spark, 4).runWithData(0, ())((_, s, e) => (s, e)).isEmpty)
  }

  test("LocalRunner.share returns the value itself") {
    val data = Array(1, 2, 3)
    val h = new LocalRunner(4).share(data)
    assert(h.value eq data)
    h.release()
    assert(h.value eq data)
  }

  test("a SparkRunner handle serves several calls; a call reading it after release fails") {
    val runner = new SparkRunner(spark, 4)
    val data = Array.tabulate(100)(_ * 3)
    val h = runner.share(data)
    for (_ <- 0 until 3) {
      val res = runner.runWithData(100, h)((d, s, e) => (s until e).map(d.value(_)).sum).sum
      assert(res == data.sum)
    }
    assert(runner.mapIds(Array.range(0, 100), (h, 2)) { case ((d, m), id) => d.value(id) * m }.toSeq ==
      data.map(_ * 2).toSeq)
    h.release()
    eventually(timeout(10.seconds))(assert(!broadcastLive(data)))
    intercept[Exception](runner.runWithData(100, h)((d, s, e) => d.value(s) + e))
  }

  test("runShared runs one job over a shared handle and broadcasts nothing of its own") {
    val runner = new SparkRunner(spark, 4)
    val data = Array.tabulate(100)(_ * 3)
    val h = runner.share(data)
    try {
      // each chunk counts, while the job runs, the live broadcasts of its value
      val (copies, jobs) = countingJobs {
        runner.runShared(100, h) { (d, _, _) =>
          SparkTestHooks.liveBroadcastValues(SparkTestHooks.activeContext).count {
            case v: AnyRef => v eq d
            case _ => false
          }
        }
      }
      assert(jobs == 1)
      assert(copies == Seq(1, 1, 1, 1))
    } finally h.release()
  }

  test("LocalRunner.shareFor returns the value itself and keeps none") {
    val key = new Object
    var makes = 0
    val data = Array(1, 2, 3)
    val runner = new LocalRunner(4)
    for (_ <- 0 until 2) {
      val h = runner.shareFor(Seq(key)) { makes += 1; data }
      assert(h.value eq data)
      h.release()
    }
    assert(makes == 2)
  }

  test("SparkRunner.shareFor keeps one broadcast per context until another key replaces it") {
    val keyA, keyB = new Object
    val dataA = Array.tabulate(100)(_ * 3)
    val dataB = Array.tabulate(100)(_ * 5)
    var makes = 0
    // a new runner per call, as GraphDOD.detect makes one per query
    def lease(key: AnyRef, data: Array[Int]): Shared[Array[Int]] =
      new SparkRunner(spark, 4).shareFor(Seq(key)) { makes += 1; data }
    def sum(h: Shared[Array[Int]]): Int =
      new SparkRunner(spark, 4).runShared(100, h)((d, s, e) => (s until e).map(d(_)).sum).sum

    val first = lease(keyA, dataA)
    val again = lease(keyA, dataA)
    assert(makes == 1)
    assert(sum(first) == dataA.sum && sum(again) == dataA.sum)
    first.release(); again.release()
    assert(broadcastLive(dataA)) // kept with no handle held
    val third = lease(keyA, dataA)
    assert(sum(third) == dataA.sum && makes == 1)
    third.release()

    val b = lease(keyB, dataB)
    assert(makes == 2)
    eventually(timeout(10.seconds))(assert(!broadcastLive(dataA)))
    // a handle in use outlives its replacement, and is freed on its release
    val a = lease(keyA, dataA)
    assert(makes == 3)
    assert(sum(b) == dataB.sum)
    b.release()
    b.release() // a second release is a no-op
    eventually(timeout(10.seconds))(assert(!broadcastLive(dataB)))
    assert(sum(a) == dataA.sum)
    a.release()
    assert(broadcastLive(dataA))
  }

  test("SparkRunner surfaces a failing chunk's error, frees the broadcast and runs again") {
    val runner = new SparkRunner(spark, 4)
    val data = Array.tabulate(100)(identity)
    val err = intercept[SparkException] {
      runner.runWithData(100, data) { (d, s, e) =>
        if (s > 0) throw new IllegalStateException(s"boom in chunk $s")
        d(e - 1)
      }
    }
    assert(err.getMessage.contains("boom in chunk"))
    eventually(timeout(10.seconds))(assert(!broadcastLive(data)))
    assert(runner.runWithData(100, data)((d, s, e) => (s until e).map(d(_)).sum).sum == data.sum)
  }
}
