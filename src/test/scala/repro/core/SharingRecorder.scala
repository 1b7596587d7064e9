package repro.core

import scala.collection.mutable
import scala.reflect.ClassTag

/** A [[ParRunner]] that runs like [[LocalRunner]] and records every value
  * it shares, in order. It keeps one keyed value, as [[SparkRunner]] keeps
  * one broadcast per context: a [[shareFor]] with the kept key reuses it,
  * another key replaces it.
  */
final class SharingRecorder(parts: Int) extends ParRunner {
  private val local = new LocalRunner(parts)
  private var kept: Option[(Seq[AnyRef], Shared[_])] = None
  val shared = mutable.ArrayBuffer.empty[Any]

  protected def maxChunks: Int = parts

  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T] =
    local.runShared(n, handle)(f)

  def share[D: ClassTag](data: D): Shared[D] = { shared += data; local.share(data) }

  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D] = kept match {
    case Some((k, h)) if k == key => h.asInstanceOf[Shared[D]]
    case _ =>
      val h = share(make)
      kept = Some((key, h))
      h
  }
}
