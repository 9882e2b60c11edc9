package neatsbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core.neats.{NeaTS, NeaTSCompressed}
import scala.collection.mutable.ArrayBuffer

/** Settings of one run. `scale` shrinks every input (the self-test uses it);
  * `corrupt` falsifies the first answer of each check kind, to show that the
  * checks report it.
  */
final case class RunConfig(workload: String, seed: Long, fork: Int, seconds: Double, trace: Trace,
                           scale: Double, corrupt: Boolean, workDir: File)

/** Operations attempted and failed, and whether every answer of the
  * operations that did not fail was right.
  */
final class Outcome(corrupt: Boolean) {
  var attempted = 0L
  var failed = 0L
  var wrong = 0L
  val messages = ArrayBuffer[String]()
  private val tampered = collection.mutable.Set[String]()

  /** The answer as the check sees it: in a corrupt run, the first answer of
    * each kind has bit 40 flipped, far outside any eps the checks allow.
    */
  def answer(kind: String, v: Long): Long =
    if (corrupt && tampered.add(kind)) v ^ (1L << 40) else v

  def answer(kind: String, vs: Array[Long]): Array[Long] =
    if (corrupt && vs.nonEmpty && tampered.add(kind)) { val c = vs.clone; c(0) ^= 1L << 40; c } else vs

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) { wrong += 1; if (messages.length < 10) messages += what }

  def correct: Boolean = wrong == 0
}

final case class Metric(name: String, value: Double, unit: String)

/** One workload: set-up (repeated and timed by the caller), a JIT warm-up,
  * and rounds of the same operations until the run's time is used up.
  */
trait Workload {
  /** Set-ups per JVM; the run's `setup_s` is their median. */
  def setupRepeats: Int
  def setup(): Unit
  def warmup(): Unit
  def round(): Unit
  /** End-to-end metrics other than `setup_s`. */
  def metrics: Seq[Metric]
  /** What the per-layer probes run on. */
  def layerInputs: LayerInputs
}

/** The data a workload hands to the per-layer probes: the units it
  * compresses, the compressed series it reads, and a NeaTS table.
  */
final case class LayerInputs(units: Seq[Series], read: Seq[(Array[Long], NeaTSCompressed)],
                             table: TableOnDisk, spark: () => SparkSession)

final case class TableOnDisk(path: String, values: Array[Long], writeSeconds: Double)

object Timed {
  def ns[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }
}

object Spark {
  private var started: SparkSession = null

  /** A local session with at most 4 task threads, keeping every file it
    * writes inside `workDir`.
    */
  def session(workDir: File): SparkSession = synchronized {
    if (started == null) {
      val threads = math.min(4, Runtime.getRuntime.availableProcessors)
      started = SparkSession.builder()
        .master(s"local[$threads]")
        .appName("neats-bench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", threads.toString)
        .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
        .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
        .getOrCreate()
      started.sparkContext.setLogLevel("ERROR")
    }
    started
  }

  def stop(): Unit = synchronized { if (started != null) { started.stop(); started = null } }
}

/** Per round: lossless compression of the mix, three lossy passes over it
  * (each is about a tenth of the lossless work), two row-group-sized lossless
  * requests per series, and the known-failing nanosecond timestamps once.
  */
final class Ingest(cfg: RunConfig, out: Outcome) extends Workload {
  private val trace = cfg.trace
  private val rng = new java.util.Random((cfg.seed * 31 + cfg.fork) * 4 + 1)
  private var mix: Seq[Series] = Nil
  private var nanos: Array[Long] = Array.empty
  private var losslessNs, losslessBytes, lossyNs, lossyBytes = 0L
  private var blobBits, blobValues = 0L
  private val requestUs = ArrayBuffer[Double]()
  private val groupSize = 8192

  def setupRepeats: Int = 5
  def setup(): Unit = {
    mix = Inputs.mixSeries(cfg.seed, cfg.scale)
    nanos = Inputs.nanoTimestamps
  }

  def warmup(): Unit = for (_ <- 0 until 2; s <- mix) {
    val head = java.util.Arrays.copyOf(s.values, math.min(s.n, groupSize))
    Blackhole.consume(NeaTS.compress(head).toBytes.length)
    Blackhole.consume(NeaTS.compressLossy(head, s.lossyEps).numFragments)
  }

  private def lossless(values: Array[Long]): Array[Byte] = trace.span("ingest.lossless") {
    val c = trace.span("neats.compress")(NeaTS.compress(values))
    trace.span("neats.toBytes")(c.toBytes)
  }

  private def checkRoundTrip(kind: String, values: Array[Long], blob: Array[Byte]): Unit = {
    val back = out.answer(kind, NeaTSCompressed.fromBytes(blob).decompressAll())
    out.check(java.util.Arrays.equals(back, values), s"$kind: decoded blob differs from its input")
  }

  def round(): Unit = {
    var roundBits = 0L
    var roundValues = 0L
    mix.foreach { s =>
      out.attempted += 1
      val (blob, t) = Timed.ns(lossless(s.values))
      losslessNs += t; losslessBytes += s.rawBytes
      roundBits += blob.length * 8L; roundValues += s.n
      checkRoundTrip("lossless", s.values, blob)
    }
    blobBits = roundBits; blobValues = roundValues
    for (_ <- 0 until 3; s <- mix) {
      out.attempted += 1
      val (c, t) = Timed.ns(trace.span("ingest.lossy")(NeaTS.compressLossy(s.values, s.lossyEps)))
      lossyNs += t; lossyBytes += s.rawBytes
      val back = out.answer("lossy", c.decompressAll())
      var i = 0
      var ok = back.length == s.n
      while (ok && i < s.n) { ok = math.abs(back(i) - s.values(i)) <= s.lossyEps; i += 1 }
      out.check(ok, s"lossy ${s.name}: a decoded value is more than eps ${s.lossyEps} away")
    }
    // Row-group-sized requests at seeded positions, as a table writer sends
    // them; the same number from every series, so their median does not
    // depend on which series the seed favours.
    for (s <- mix; _ <- 0 until 2) {
      out.attempted += 1
      val len = math.min(groupSize, s.n)
      val from = rng.nextInt(s.n - len + 1)
      val group = java.util.Arrays.copyOfRange(s.values, from, from + len)
      val (blob, t) = Timed.ns(lossless(group))
      requestUs += t / 1e3
      checkRoundTrip("request", group, blob)
    }
    // Known fault: fitting in doubles against absolute values cannot hold
    // eps = 0 at 1.76e18, so compress throws. Counted as failed.
    out.attempted += 1
    try {
      val blob = trace.span("ingest.nanos")(NeaTS.compress(nanos).toBytes)
      checkRoundTrip("nanos", nanos, blob)
    } catch { case _: IllegalArgumentException => out.failed += 1 }
  }

  def metrics: Seq[Metric] = Seq(
    Metric("bits_per_value", blobBits.toDouble / blobValues, "bit/value"),
    Metric("primary_mbps", losslessBytes / 1e6 / (losslessNs / 1e9), "MB/s"),
    Metric("secondary_mbps", lossyBytes / 1e6 / (lossyNs / 1e9), "MB/s"),
    Metric("request_us_p50", Stats.median(requestUs), "us"),
  )

  def layerInputs: LayerInputs = {
    val read = mix.map(s => (s.values, NeaTS.compress(s.values)))
    LayerInputs(mix, read, Layers.writeTable(cfg.workDir, mix), () => Spark.session(cfg.workDir))
  }
}

/** Reads of the mix compressed in set-up: uniform-random point accesses,
  * 1,000-point range scans and full decompression, in a seeded closed loop.
  */
final class Lookup(cfg: RunConfig, out: Outcome) extends Workload {
  private val trace = cfg.trace
  private val rng = new java.util.Random((cfg.seed * 31 + cfg.fork) * 4 + 2)
  private var mix: Seq[Series] = Nil
  private var series: Array[Array[Long]] = Array.empty
  private var compressed: Array[NeaTSCompressed] = Array.empty
  private var blobBits = 0L
  private val batch = 4096
  private val batchesPerRound = 16
  private val rangeLen = 1000
  private val rangesPerRound = 64
  private val pointNs = ArrayBuffer[Double]()
  private val rangeNs = ArrayBuffer[Double]()
  private val passNs = ArrayBuffer[Double]()

  def setupRepeats: Int = 1
  def setup(): Unit = {
    mix = Inputs.mixSeries(cfg.seed, cfg.scale)
    val blobs = mix.map(s => NeaTS.compress(s.values).toBytes)
    blobBits = blobs.map(_.length * 8L).sum
    compressed = blobs.map(NeaTSCompressed.fromBytes).toArray
    series = mix.map(_.values).toArray
  }

  private def total: Long = series.map(_.length.toLong).sum
  private val got = new Array[Long](batch * batchesPerRound)

  private def points(record: Boolean): Unit = {
    val (sid, idx) = Inputs.positions(series.map(_.length), got.length, 1, rng)
    var b = 0
    while (b < batchesPerRound) {
      val from = b * batch
      val t0 = System.nanoTime()
      trace.span("neats.apply.batch") {
        var j = from
        while (j < from + batch) { got(j) = compressed(sid(j))(idx(j)); j += 1 }
      }
      val t = System.nanoTime() - t0
      if (record) pointNs += t.toDouble / batch
      b += 1
    }
    out.attempted += sid.length
    var j = 0
    while (j < sid.length) {
      val v = out.answer("point", got(j))
      out.check(v == series(sid(j))(idx(j)), s"point ${sid(j)}:${idx(j)} returned $v")
      j += 1
    }
  }

  private def ranges(record: Boolean): Unit = {
    val (rsid, ridx) = Inputs.positions(series.map(_.length), rangesPerRound, rangeLen, rng)
    var j = 0
    while (j < rangesPerRound) {
      val (slice, t) = Timed.ns(trace.span("neats.range")(compressed(rsid(j)).range(ridx(j), rangeLen)))
      if (record) rangeNs += t.toDouble
      out.attempted += 1
      val v = out.answer("range", slice)
      out.check(java.util.Arrays.equals(v, java.util.Arrays.copyOfRange(series(rsid(j)), ridx(j), ridx(j) + rangeLen)),
        s"range ${rsid(j)}:${ridx(j)} differs")
      j += 1
    }
  }

  private def pass(record: Boolean): Unit = {
    var t = 0L
    compressed.indices.foreach { s =>
      val (all, d) = Timed.ns(trace.span("neats.decompressAll")(compressed(s).decompressAll()))
      t += d
      out.attempted += 1
      out.check(java.util.Arrays.equals(out.answer("decompress", all), series(s)), s"decompressAll of ${mix(s).name} differs")
    }
    if (record) passNs += t.toDouble
  }

  def warmup(): Unit = {
    for (_ <- 0 until 30) pass(record = false)
    for (_ <- 0 until 16) { points(record = false); ranges(record = false) }
  }

  def round(): Unit = { points(record = true); ranges(record = true); pass(record = true) }

  def metrics: Seq[Metric] = {
    val raw = total * 8.0
    Seq(
      Metric("bits_per_value", blobBits.toDouble / total, "bit/value"),
      Metric("primary_mbps", raw / 1e6 / (Stats.median(passNs) / 1e9), "MB/s"),
      Metric("secondary_mbps", rangeLen * 8 / 1e6 / (Stats.median(rangeNs) / 1e9), "MB/s"),
      Metric("request_us_p50", Stats.median(pointNs) / 1e3, "us"),
    )
  }

  def layerInputs: LayerInputs =
    LayerInputs(mix, series.toSeq.zip(compressed.toSeq), Layers.writeTable(cfg.workDir, mix),
      () => Spark.session(cfg.workDir))
}
