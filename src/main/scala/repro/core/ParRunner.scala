package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** Fan-out of a pure, read-only computation over id ranges `[start, end)` —
  * the one place the algorithms touch Spark.
  *
  * The paper parallelizes NNDescent's local joins, Remove-Detours' BFS and
  * Algorithm 1 across OpenMP threads ("each thread independently evaluates
  * assigned objects"). Here a "thread" is a chunk: [[SparkRunner]]
  * broadcasts the call's data and runs one Spark task per chunk, so a call
  * of several chunks is one Spark job; [[LocalRunner]] runs the chunks
  * inline, which keeps unit tests fast and serves as the reference the
  * Spark runner must match. Both return the chunk results in chunk order,
  * so driver-side merges see the same sequence — and build the same graph —
  * under either runner.
  *
  * State that several calls read (the dataset during a build) is shared
  * once with [[share]]: the call data then carries only the small handle,
  * and each chunk reads the state through [[Shared.value]].
  *
  * `f` must not mutate `data`, and must reach shared state only through
  * `data`: under Spark, whatever else `f` captures is a serialized copy (a
  * copied [[CountingSpace]] would count nothing). Per-chunk results are
  * merged by the caller on the driver (the paper's iteration-synchronous
  * model).
  */
trait ParRunner extends Serializable {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T]

  /** Makes `data` readable by the chunks of any later call through the
    * returned handle, until the handle's [[Shared.release]].
    */
  def share[D: ClassTag](data: D): Shared[D]

  /** Splits `[0, n)` into at most `parts` contiguous ranges. */
  protected def chunks(n: Int, parts: Int): Seq[(Int, Int)] = {
    if (n <= 0) return Seq.empty
    val p = math.max(1, math.min(parts, n))
    val step = (n + p - 1) / p
    (0 until n by step).map(s => (s, math.min(n, s + step)))
  }

  /** `f(data, id)` for every id of `ids`, returned aligned with `ids`. The
    * ids are dealt to chunks in a seeded random order — the paper's random
    * assignment of objects to threads (§4), which balances load when the
    * per-object cost clusters by id.
    */
  final def mapIds[D: ClassTag, T: ClassTag](ids: Array[Int], data: D)(f: (D, Int) => T): Array[T] = {
    val perm = ParRunner.permutation(ids.length)
    val dealt = perm.map(i => ids(i))
    val chunkResults = runWithData(dealt.length, (data, dealt)) { case ((d, order), s, e) =>
      Array.tabulate(e - s)(i => f(d, order(s + i)))
    }
    val out = new Array[T](ids.length)
    var pos = 0
    chunkResults.foreach(_.foreach { t => out(perm(pos)) = t; pos += 1 })
    out
  }

  /** The ids of `ids` (in their order) for which `pred(data, id)` holds. */
  final def select[D: ClassTag](ids: Array[Int], data: D)(pred: (D, Int) => Boolean): Array[Int] = {
    val keep = mapIds(ids, data)(pred)
    ids.indices.collect { case i if keep(i) => ids(i) }.toArray
  }
}

/** A read-only value shared with the chunks of a [[ParRunner]]'s calls. The
  * handle is small and serializable, so call data can carry it.
  */
trait Shared[D] extends Serializable {
  def value: D

  /** Frees the shared copies; call it once, after the last call that reads
    * the value. Under Spark, a call that reads the value afterwards fails.
    */
  def release(): Unit
}

object ParRunner {

  /** Seed of the id-to-chunk assignment; it only moves work between chunks,
    * never a result.
    */
  val ShuffleSeed = 0x5EED1DL

  /** A Fisher–Yates permutation of `[0, n)`, seeded with [[ShuffleSeed]]. */
  def permutation(n: Int): Array[Int] = {
    val perm = Array.range(0, n)
    val rng = new java.util.Random(ShuffleSeed)
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    perm
  }
}

/** Sequential in-process runner (deterministic; used by unit tests). Its
  * shared handles are the values themselves.
  */
final class LocalRunner(parts: Int = 8) extends ParRunner {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T] =
    chunks(n, parts).map { case (s, e) => f(data, s, e) }

  def share[D: ClassTag](data: D): Shared[D] = new LocalRunner.Value(data)
}

object LocalRunner {
  private final class Value[D](val value: D) extends Shared[D] {
    def release(): Unit = ()
  }
}

/** Spark-backed runner: broadcast the call's data, run one task per chunk,
  * collect the results in chunk order, and destroy the broadcast, also when
  * a chunk fails. A single chunk runs on the driver. `parts <= 0` means the
  * session's default parallelism. A shared handle is a broadcast that lives
  * until its release.
  */
final class SparkRunner(@transient spark: SparkSession, parts: Int = 0) extends ParRunner {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T] = {
    val sc = spark.sparkContext
    val ranges = chunks(n, if (parts > 0) parts else sc.defaultParallelism)
    if (ranges.size <= 1) return ranges.map { case (s, e) => f(data, s, e) }
    val shared = share(data)
    try sc.parallelize(ranges, ranges.size).map { case (s, e) => f(shared.value, s, e) }.collect().toSeq
    finally shared.release()
  }

  def share[D: ClassTag](data: D): Shared[D] = new SparkRunner.Broadcasted(spark.sparkContext.broadcast(data))
}

object SparkRunner {
  private final class Broadcasted[D](bc: Broadcast[D]) extends Shared[D] {
    def value: D = bc.value
    def release(): Unit = bc.destroy()
  }
}
