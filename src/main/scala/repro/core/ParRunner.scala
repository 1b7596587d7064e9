package repro.core

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.reflect.ClassTag

/** Fan-out of a pure, read-only computation over id ranges `[start, end)` —
  * the one place the algorithms touch Spark.
  *
  * The paper parallelizes NNDescent's local joins, Remove-Detours' BFS and
  * Algorithm 1 across OpenMP threads ("each thread independently evaluates
  * assigned objects"). Here a "thread" is a chunk: [[SparkRunner]] runs one
  * Spark task per chunk, so a call of several chunks is one Spark job, one
  * `runJob`; [[LocalRunner]] runs the chunks inline, which keeps unit tests
  * fast and serves as the reference the Spark runner must match. Both
  * return the chunk results in chunk order, so driver-side merges see the
  * same sequence — and build the same graph — under either runner.
  *
  * The chunks read their state through a [[Shared]] handle, under one of
  * two rules. Per call: [[runWithData]] shares its data for that call only.
  * Keyed: [[shareFor]] keeps a value for as long as later calls bring the
  * same key. The dataset is kept so ([[shareSpace]]) for every build and
  * scan fan-out, and so is detection's payload, which every query on one
  * graph reads; [[runShared]] fans out over such a handle.
  *
  * `f` must not mutate the shared value, and must reach shared state only
  * through the call's data or a handle it captures: under Spark, whatever
  * else `f` captures is a serialized copy. Per-chunk results are merged by
  * the caller on the driver (the paper's iteration-synchronous model). A
  * chunk evaluates distances through its own [[ChunkCount]], and the driver
  * adds the chunks' sum to the caller's space ([[runOnSpace]]), so counts
  * hold whether the chunks read the caller's values or copies.
  */
trait ParRunner extends Serializable {

  /** `f(handle.value, s, e)` for each chunk `[s, e)` of `[0, n)`, in chunk
    * order. The caller keeps the handle unreleased until the call returns.
    */
  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T]

  /** Makes `data` readable by the chunks of any later call through the
    * returned handle, until the handle's [[Shared.release]].
    */
  def share[D: ClassTag](data: D): Shared[D]

  /** A handle on the value `make` builds for `key`, reused by later calls
    * with an equal key (element by element with `==`, so elements without
    * their own equality compare by reference). Each call's handle is
    * released once, after its last use; a call with another key replaces
    * the kept value, which is freed when no handle on it is left
    * unreleased. The key's elements must not change while the value is
    * kept.
    */
  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D]

  /** [[runShared]] over `data`, shared for this call only. A call of one
    * chunk reads `data` as is.
    */
  final def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T] = {
    val rs = ranges(n)
    if (rs.size <= 1) return rs.map { case (s, e) => f(data, s, e) }
    val handle = share(data)
    try runShared(n, handle)(f)
    finally handle.release()
  }

  /** The most chunks a call fans out over. */
  protected def maxChunks: Int

  /** Splits `[0, n)` into at most [[maxChunks]] contiguous ranges. */
  protected final def ranges(n: Int): Seq[(Int, Int)] = {
    if (n <= 0) return Seq.empty
    val p = math.max(1, math.min(maxChunks, n))
    val step = (n + p - 1) / p
    (0 until n by step).map(s => (s, math.min(n, s + step)))
  }

  /** A handle on `space`, kept under the key `Seq(space)` ([[shareFor]]):
    * back-to-back fan-outs over one space, in one build or across builds
    * and scans, share it once.
    */
  final def shareSpace(space: MetricSpace): Shared[MetricSpace] = shareFor(Seq(space))(space)

  /** `f(counted, data, s, e)` for each chunk `[s, e)` of `[0, n)`, in chunk
    * order, where `counted` is the chunk's own [[ChunkCount]] over `space`'s
    * keyed handle ([[shareSpace]]). The chunks' evaluations are added to
    * `space` once the call returns.
    *
    * The handle rides in the chunk closure, not in `data`: Spark broadcasts
    * `data` deserialized and size-estimates its object graph, transient
    * fields included, and a keyed handle's driver-side slot reaches the
    * SparkContext: estimating one walked about 6 MB of driver objects in
    * 11–18 ms, against 808 B for a per-call handle. The closure is
    * Java-serialized, which skips transient fields.
    */
  final def runOnSpace[D: ClassTag, T: ClassTag](n: Int, space: MetricSpace, data: D)(
      f: (MetricSpace, D, Int, Int) => T): Seq[T] = {
    val handle = shareSpace(space)
    val results = try runWithData(n, data) { (d, s, e) =>
      val counted = new ChunkCount(handle.value)
      val t = f(counted, d, s, e)
      (t, counted.evaluations)
    } finally handle.release()
    CountingSpace.add(space, results.map(_._2).sum)
    results.map(_._1)
  }

  /** `g(id)` for every id of `ids`, returned aligned with `ids`, where each
    * chunk makes its own `g = f(counted, data)` once, before its first id:
    * a [[runOnSpace]] fan-out, so `counted` is the chunk's [[ChunkCount]]
    * over `space`, and `g` may keep per-chunk scratch. The ids are dealt to
    * chunks in a seeded random order — the paper's random assignment of
    * objects to threads (§4), which balances load when the per-object cost
    * clusters by id.
    */
  final def mapIds[D: ClassTag, T: ClassTag](ids: Array[Int], space: MetricSpace, data: D)(
      f: (MetricSpace, D) => Int => T): Array[T] = {
    val perm = ParRunner.permutation(ids.length)
    val dealt = perm.map(i => ids(i))
    val chunkResults = runOnSpace(dealt.length, space, (data, dealt)) { case (counted, (d, order), s, e) =>
      val g = f(counted, d)
      Array.tabulate(e - s)(i => g(order(s + i)))
    }
    val out = new Array[T](ids.length)
    var pos = 0
    chunkResults.foreach(_.foreach { t => out(perm(pos)) = t; pos += 1 })
    out
  }

  /** The ids of `ids` (in their order) for which `pred(counted, data, id)`
    * holds: [[mapIds]] over `space`.
    */
  final def select[D: ClassTag](ids: Array[Int], space: MetricSpace, data: D)(
      pred: (MetricSpace, D, Int) => Boolean): Array[Int] = {
    val keep = mapIds(ids, space, data)((sp, d) => pred(sp, d, _))
    ids.indices.collect { case i if keep(i) => ids(i) }.toArray
  }
}

/** A read-only value shared with the chunks of a [[ParRunner]]'s calls. The
  * handle is small and serializable, so a chunk function can capture it
  * (see [[ParRunner.runOnSpace]] for why a keyed handle stays out of call
  * data).
  */
trait Shared[D] extends Serializable {
  def value: D

  /** Ends this handle's use of the value; call it once, after the last call
    * that reads it. A [[ParRunner.share]] handle frees the shared copies, so
    * under Spark a call that reads the value afterwards fails; a
    * [[ParRunner.shareFor]] handle leaves them to the runner.
    */
  def release(): Unit
}

object ParRunner {

  /** Seed of the id-to-chunk assignment; it only moves work between chunks,
    * never a result.
    */
  val ShuffleSeed = 0x5EED1DL

  /** A Fisher–Yates permutation of `[0, n)`, seeded with [[ShuffleSeed]]. */
  def permutation(n: Int): Array[Int] = Shuffle.range(n, new scala.util.Random(ShuffleSeed))
}

/** Sequential in-process runner (deterministic; used by unit tests). Its
  * shared handles are the values themselves, and it keeps no value between
  * calls.
  */
final class LocalRunner(parts: Int = 8) extends ParRunner {
  protected def maxChunks: Int = parts

  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T] =
    ranges(n).map { case (s, e) => f(handle.value, s, e) }

  def share[D: ClassTag](data: D): Shared[D] = new LocalRunner.Value(data)

  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D] = share(make)
}

object LocalRunner {
  private final class Value[D](val value: D) extends Shared[D] {
    def release(): Unit = ()
  }
}

/** Spark-backed runner: a call of several chunks is one
  * `SparkContext.runJob` with one task per chunk, whose result handler files
  * each task's result under its chunk's index, so the results come back in
  * chunk order whatever order the tasks finish in; a single chunk runs on
  * the driver. The job is launched directly rather than through
  * `parallelize(...).map(...).collect()`: Spark's closure cleaner reads and
  * parses the class file of every closure's declaring class on every job,
  * and `collect()` adds two closures declared in `RDD` and `SparkContext`,
  * which made an empty job cost about 1.5-2x as much. `parts <= 0` means
  * the session's default parallelism. A shared handle is a broadcast: a
  * [[share]] handle's lives until its release, also when a chunk fails.
  *
  * [[shareFor]] keeps one broadcast per SparkContext, whichever runner made
  * it, so runners built per call (as `GraphDOD.detect` does) reuse it too.
  * It lives until a call on that context brings another key and the last
  * handle on it is released, or until the context stops; a stopped
  * context's broadcast is dropped, not destroyed, as it went with the
  * context.
  */
final class SparkRunner(@transient spark: SparkSession, parts: Int = 0) extends ParRunner {
  protected def maxChunks: Int = if (parts > 0) parts else spark.sparkContext.defaultParallelism

  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T] = {
    val rs = ranges(n)
    if (rs.size <= 1) return rs.map { case (s, e) => f(handle.value, s, e) }
    val sc = spark.sparkContext
    val out = new Array[T](rs.size)
    // one chunk per slice, so partition i is chunk i
    sc.runJob(
      sc.parallelize(rs, rs.size),
      (_: TaskContext, chunk: Iterator[(Int, Int)]) => { val (s, e) = chunk.next(); f(handle.value, s, e) },
      rs.indices,
      (i: Int, t: T) => out(i) = t)
    out.toSeq
  }

  def share[D: ClassTag](data: D): Shared[D] = new SparkRunner.Broadcasted(spark.sparkContext.broadcast(data))

  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D] =
    SparkRunner.lease(spark.sparkContext, key, make)
}

object SparkRunner {
  private final class Broadcasted[D](bc: Broadcast[D]) extends Shared[D] {
    def value: D = bc.value
    def release(): Unit = bc.destroy()
  }

  /** A context's kept broadcast, with the number of unreleased handles on
    * it; `replaced` once a later key took its place.
    */
  private final class Slot(val sc: SparkContext, val key: Seq[AnyRef], val bc: Broadcast[_]) {
    var users = 0
    var replaced = false
  }

  // guarded by SparkRunner's lock, as are the slots' fields
  private val slots = mutable.HashMap.empty[SparkContext, Slot]

  private def lease[D: ClassTag](sc: SparkContext, key: Seq[AnyRef], make: => D): Shared[D] = synchronized {
    slots.filterInPlace((c, _) => !c.isStopped)
    val slot = slots.get(sc) match {
      case Some(kept) if kept.key == key => kept
      case old =>
        val fresh = new Slot(sc, key, sc.broadcast(make))
        old.foreach { kept => kept.replaced = true; if (kept.users == 0) kept.bc.destroy() }
        slots(sc) = fresh
        fresh
    }
    slot.users += 1
    new Lease(slot.bc.asInstanceOf[Broadcast[D]], slot)
  }

  /** One call's handle on a kept broadcast. Only the broadcast ships with a
    * task; the slot (and the key it holds) stays on the driver.
    */
  private final class Lease[D](bc: Broadcast[D], @transient slot: Slot) extends Shared[D] {
    @transient private var released = false

    def value: D = bc.value

    def release(): Unit = SparkRunner.synchronized {
      if (!released) {
        released = true
        slot.users -= 1
        if (slot.replaced && slot.users == 0 && !slot.sc.isStopped) slot.bc.destroy()
      }
    }
  }
}
