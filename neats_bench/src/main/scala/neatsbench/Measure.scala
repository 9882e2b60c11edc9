package neatsbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Sample statistics over measured values. */
object Stats {
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.toArray.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)
}

/** Keeps results alive so the JIT cannot drop the work that made them. */
object Blackhole {
  @volatile var sink: Long = 0L
  def consume(v: Long): Unit = sink ^= v
}

/** Garbage-collection time and allocated bytes of this JVM, read from the
  * management beans. Allocation is summed over the threads alive at the time
  * of reading, so Spark's task threads count too.
  */
object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def allocatedBytes: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  /** Bytes allocated by the calling thread so far. */
  def threadAllocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  final case class Snapshot(gcMs: Long, allocBytes: Long)
  def snapshot(): Snapshot = Snapshot(gcMillis, allocatedBytes)
}

/** A minimal JSON writer for the benchmark's output lines. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b.append("\\\"")
      case '\\' => b.append("\\\\")
      case c if c < ' ' => b.append(f"\\u${c.toInt}%04x")
      case c => b.append(c)
    }
    b.append('"').toString
  }
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    java.lang.Double.toString(d)
  }
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Spans recorded around the benchmark's own calls into the program's layers
  * (name, start, end, parent), kept in memory and written out at the end.
  * Only the traced run records spans; in the untraced run `span` is one
  * branch around the call.
  */
final class Trace(val enabled: Boolean) {
  private val names = ArrayBuffer[String]()
  private val nameIds = collection.mutable.HashMap[String, Int]()
  private var nameOf = new Array[Int](1024)
  private var parentOf = new Array[Int](1024)
  private var startNs = new Array[Long](1024)
  private var endNs = new Array[Long](1024)
  private var count = 0
  private var open = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
      if (count == nameOf.length) grow()
      val me = count
      count += 1
      nameOf(me) = id
      parentOf(me) = open
      open = me
      startNs(me) = System.nanoTime()
      try body
      finally {
        endNs(me) = System.nanoTime()
        open = parentOf(me)
      }
    }

  private def grow(): Unit = {
    val n = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, n)
    parentOf = java.util.Arrays.copyOf(parentOf, n)
    startNs = java.util.Arrays.copyOf(startNs, n)
    endNs = java.util.Arrays.copyOf(endNs, n)
  }

  /** Per span name: count, total time and self time (total minus the time
    * covered by child spans), in milliseconds.
    */
  def summary: Seq[(String, Long, Double, Double)] = {
    val total = new Array[Long](names.length)
    val child = new Array[Long](names.length)
    val calls = new Array[Long](names.length)
    var i = 0
    while (i < count) {
      val d = endNs(i) - startNs(i)
      total(nameOf(i)) += d
      calls(nameOf(i)) += 1
      if (parentOf(i) >= 0) child(nameOf(parentOf(i))) += d
      i += 1
    }
    names.indices.map(j => (names(j), calls(j), total(j) / 1e6, (total(j) - child(j)) / 1e6))
  }

  /** Writes the span summary and the first `maxSpans` spans as JSON. */
  def write(file: java.io.File, maxSpans: Int = 100000): Unit = {
    val out = new java.io.PrintWriter(file, "UTF-8")
    try {
      out.println("{\"summary\": [")
      out.println(summary.map { case (n, c, t, s) =>
        Json.obj(Seq("name" -> Json.str(n), "count" -> c.toString,
          "total_ms" -> Json.num(t), "self_ms" -> Json.num(s)))
      }.mkString(",\n"))
      out.println("], \"spans\": [")
      val t0 = if (count > 0) startNs(0) else 0L
      out.println((0 until math.min(count, maxSpans)).map { i =>
        s"[$i, ${Json.str(names(nameOf(i)))}, ${parentOf(i)}, ${startNs(i) - t0}, ${endNs(i) - t0}]"
      }.mkString(",\n"))
      out.println("]}")
    } finally out.close()
  }
}
