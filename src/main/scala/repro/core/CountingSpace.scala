package repro.core

import java.util.concurrent.atomic.LongAdder

/** Wraps a metric space and counts distance evaluations — the cost model
  * every algorithm in the paper is analyzed under, and a wall-clock-free
  * way to compare algorithms at reduced scale (Spark job overhead would
  * otherwise floor the sub-second runs).
  *
  * Driver-side code counts here call by call. A [[ParRunner]] fan-out's
  * chunks do not: each evaluates on the unwrapped space through its own
  * [[ChunkCount]] and returns that count with its result, and the driver
  * adds the chunks' sum to the caller's space once per fan-out
  * ([[CountingSpace.add]]). So the count is complete under any master,
  * also when the chunks read a serialized copy of the space. Callers read
  * [[evaluations]] before/after a run.
  *
  * A `within` test is one evaluation, like the `dist` it answers for, even
  * when the base space stops it early.
  */
final class CountingSpace(val base: MetricSpace) extends MetricSpace {
  private val adder = new LongAdder

  def n: Int = base.n
  def dist(i: Int, j: Int): Double = { adder.increment(); base.dist(i, j) }
  override def within(i: Int, j: Int, r: Double): Boolean = { adder.increment(); base.within(i, j, r) }
  override def roundingSlack: Double = base.roundingSlack
  override def absoluteSlack: Double = base.absoluteSlack

  def evaluations: Long = adder.sum()
}

object CountingSpace {

  /** The space under every [[CountingSpace]] that wraps `space`. */
  def unwrap(space: MetricSpace): MetricSpace = space match {
    case c: CountingSpace => unwrap(c.base)
    case s => s
  }

  /** Adds `evaluations`, made on `unwrap(space)`, to every
    * [[CountingSpace]] that wraps `space`.
    */
  def add(space: MetricSpace, evaluations: Long): Unit = space match {
    case c: CountingSpace => c.adder.add(evaluations); add(c.base, evaluations)
    case _ =>
  }
}

/** One chunk's view of a space: it evaluates on `unwrap(space)` and counts
  * in a plain field, as one thread runs a chunk. A fan-out returns
  * [[evaluations]] with the chunk's result, for the driver to add to the
  * caller's space.
  */
final class ChunkCount(space: MetricSpace) extends MetricSpace {
  private val base = CountingSpace.unwrap(space)
  private var count = 0L

  def n: Int = base.n
  def dist(i: Int, j: Int): Double = { count += 1; base.dist(i, j) }
  override def within(i: Int, j: Int, r: Double): Boolean = { count += 1; base.within(i, j, r) }
  override def roundingSlack: Double = base.roundingSlack
  override def absoluteSlack: Double = base.absoluteSlack

  def evaluations: Long = count
}
