package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.reflect.ClassTag

/** A [[ParRunner]] whose chunks read copies, as a cluster's executors do: a
  * shared value is Java-serialized once, and every chunk deserializes its
  * own copy of the handle and of the chunk function, so nothing a chunk
  * touches is the driver's object. The chunks run inline, in chunk order.
  */
final class CopyingRunner(parts: Int = 4) extends ParRunner {
  protected def maxChunks: Int = parts

  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T] =
    ranges(n).map { case (s, e) =>
      val (h, g) = CopyingRunner.copy((handle, f))
      g(h.value, s, e)
    }

  def share[D: ClassTag](data: D): Shared[D] = new CopyingRunner.Copied(CopyingRunner.bytes(data))

  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D] = share(make)
}

object CopyingRunner {
  private def bytes(x: Any): Array[Byte] = {
    val buf = new ByteArrayOutputStream
    val out = new ObjectOutputStream(buf)
    out.writeObject(x)
    out.close()
    buf.toByteArray
  }

  private def copy[T](x: T): T = read(bytes(x))

  private def read[T](b: Array[Byte]): T =
    new ObjectInputStream(new ByteArrayInputStream(b)).readObject().asInstanceOf[T]

  /** A value held as its serialized bytes: each deserialized copy of the
    * handle reads its own copy of the value.
    */
  private final class Copied[D](b: Array[Byte]) extends Shared[D] {
    @transient lazy val value: D = read(b)
    def release(): Unit = ()
  }
}
