package neatsbench

import java.io.File
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.apache.spark.sql.sources
import repro.core.approx.{FunctionKind, PiecewiseApprox}
import repro.core.neats.{NeaTS, NeaTSCompressed, Partitioner, Piece}
import repro.sparkts.{NeaTSDataSource, NeaTSFiles, NeaTSScanBuilder}
import scala.collection.mutable.ArrayBuffer

/** Per-layer numbers, timed from outside around calls to each layer's public
  * functions: `core/approx`, `core/neats` (write, layout, read), `core/bits`
  * and `sparkts`. Rates are MB of raw 8-byte input values per second unless
  * the name says otherwise.
  */
object Layers {

  private def mbps(bytes: Double, ns: Double): Double = bytes / 1e6 / (ns / 1e9)

  /** Median time of `reps` calls, in ns. */
  private def medianNs(reps: Int)(body: => Any): Double =
    Stats.median((0 until reps).map { _ => Timed.ns(body)._2.toDouble })

  def probe(in: LayerInputs, seed: Long): Seq[Metric] =
    write(in.units) ++ layout(in.read) ++ read(in.read, seed) ++ bits(in.read, seed) ++ spark(in, seed)

  /** The pieces a compressed series was built from, read back from its
    * layout: each fragment's start, kind, parameters and correction width,
    * with the grid eps 2^(w-1) - 1 that the width w stores.
    */
  def piecesOf(c: NeaTSCompressed): Vector[Piece] =
    (0 until c.numFragments).map { f =>
      val kind = FunctionKind.byId(c.k(f))
      val base = c.k.rank(kind.id, f) * kind.nParams
      val ps = c.p(kind.id)
      val w = c.b(f).toInt
      Piece(c.s(f).toInt, if (f + 1 < c.numFragments) c.s(f + 1).toInt else c.n, kind,
        ps(base), ps(base + 1), if (kind.nParams == 3) ps(base + 2) else 0.0,
        if (w == 0) 0L else (1L << (w - 1)) - 1, w)
    }.toVector

  private def write(units: Seq[Series]): Seq[Metric] = {
    val fitNs = collection.mutable.LinkedHashMap(FunctionKind.all.map(_ -> 0.0): _*)
    var partNs, lossyPartNs, buildNs, serNs, raw = 0.0
    units.foreach { u =>
      val ys = u.values
      raw += u.rawBytes
      val eps = NeaTS.epsGrid(ys).distinct.sorted
      val shift = NeaTS.shiftFor(ys, eps.max)
      for (kind <- FunctionKind.all; e <- eps)
        fitNs(kind) += Timed.ns(Blackhole.consume(PiecewiseApprox.partition(ys, shift, kind, e).length))._2
      partNs += Timed.ns(Partitioner.lossless(ys, shift, FunctionKind.all, eps))._2
      val lossyShift = NeaTS.shiftFor(ys, u.lossyEps)
      lossyPartNs += Timed.ns(Partitioner.lossyPartition(ys, lossyShift, FunctionKind.all, u.lossyEps))._2
      val c = NeaTS.compress(ys)
      val pieces = piecesOf(c)
      buildNs += medianNs(5)(NeaTSCompressed.build(ys, c.shift, pieces))
      serNs += medianNs(5)(c.toBytes)
    }
    val lossyBits = units.map(u => NeaTS.compressLossy(u.values, u.lossyEps).toBytes.length * 8L).sum
    Seq(Metric("approx.fit_mbps", mbps(raw, fitNs.values.sum), "MB/s")) ++
      fitNs.map { case (k, t) => Metric(s"approx.fit_mbps.${kindName(k)}", mbps(raw, t), "MB/s") } ++
      Seq(
        Metric("neats.partition_mbps", mbps(raw, partNs), "MB/s"),
        Metric("neats.lossy_partition_mbps", mbps(raw, lossyPartNs), "MB/s"),
        Metric("neats.build_mbps", mbps(raw, buildNs), "MB/s"),
        Metric("neats.serialize_mbps", mbps(raw, serNs), "MB/s"),
        Metric("neats.lossy_bits_per_value", lossyBits.toDouble / units.map(_.n).sum, "bit/value"),
      )
  }

  private def kindName(k: FunctionKind): String = k.toString.stripSuffix("Kind").toLowerCase

  private def layout(read: Seq[(Array[Long], NeaTSCompressed)]): Seq[Metric] = {
    val cs = read.map(_._2)
    Seq(
      Metric("neats.fragments", cs.map(_.numFragments.toDouble).sum, "count"),
      Metric("neats.layout_bits.S", cs.map(_.s.sizeInBits.toDouble).sum, "bit"),
      Metric("neats.layout_bits.B", cs.map(_.b.sizeInBits.toDouble).sum, "bit"),
      Metric("neats.layout_bits.O", cs.map(_.o.sizeInBits.toDouble).sum, "bit"),
      Metric("neats.layout_bits.C", cs.map(_.c.lengthInBits.toDouble).sum, "bit"),
      Metric("neats.layout_bits.K", cs.map(_.k.sizeInBits.toDouble).sum, "bit"),
      Metric("neats.layout_bits.P", cs.map(_.p.map(_.length * 64.0 + 32).sum).sum, "bit"),
    )
  }

  private def stream(read: Seq[(Array[Long], NeaTSCompressed)], k: Int, seed: Long): (Array[Int], Array[Int]) =
    Inputs.positions(read.map(_._1.length).toArray, k, 1, new java.util.Random(seed))

  private def read(read: Seq[(Array[Long], NeaTSCompressed)], seed: Long): Seq[Metric] = {
    val cs = read.map(_._2).toArray
    val blobs = cs.map(_.toBytes)
    val values = read.map(_._1.length.toLong).sum
    val deserNs = (0 until 5).map { _ => Timed.ns(blobs.foreach(b => Blackhole.consume(NeaTSCompressed.fromBytes(b).n)))._2.toDouble }
    val (sid, idx) = stream(read, 1 << 20, seed)
    def points(): Unit = { var j = 0; while (j < sid.length) { Blackhole.consume(cs(sid(j))(idx(j))); j += 1 } }
    points() // warm
    val a0 = JvmCounters.threadAllocatedBytes
    points()
    val pointAlloc = (JvmCounters.threadAllocatedBytes - a0).toDouble / sid.length
    cs.foreach(_.decompressAll())
    val d0 = JvmCounters.threadAllocatedBytes
    cs.foreach(c => Blackhole.consume(c.decompressAll().length))
    val decompressAlloc = (JvmCounters.threadAllocatedBytes - d0).toDouble / values
    // One timer pair per access: the tail includes the timer's own cost.
    val single = new Array[Double](200000)
    var j = 0
    while (j < single.length) {
      val t0 = System.nanoTime()
      Blackhole.consume(cs(sid(j))(idx(j)))
      single(j) = (System.nanoTime() - t0).toDouble
      j += 1
    }
    Seq(
      Metric("neats.deserialize_mbps", mbps(blobs.map(_.length.toDouble).sum, Stats.median(deserNs)), "MB/s"),
      Metric("neats.point_alloc_bytes", pointAlloc, "B"),
      Metric("neats.decompress_alloc_bytes_per_value", decompressAlloc, "B"),
      Metric("neats.point_ns_p50", Stats.median(single), "ns"),
      Metric("neats.point_ns_p99", Stats.quantile(single, 0.99), "ns"),
    )
  }

  /** The succinct structures, called directly on the positions and fragments
    * of a point-access stream: `S.rank`, the `S` and `O` selects, `K` access
    * and rank, and `B` access.
    */
  private def bits(read: Seq[(Array[Long], NeaTSCompressed)], seed: Long): Seq[Metric] = {
    val cs = read.map(_._2).toArray
    val (sid, idx) = stream(read, 1 << 18, seed + 1)
    val k = sid.length
    val frag = Array.tabulate(k)(j => cs(sid(j)).s.rank(idx(j).toLong) - 1)
    val kind = Array.tabulate(k)(j => cs(sid(j)).k(frag(j)))
    def perOp(body: Int => Long): Double = {
      def loop(): Unit = { var j = 0; var acc = 0L; while (j < k) { acc ^= body(j); j += 1 }; Blackhole.consume(acc) }
      loop(); loop()
      Stats.median((0 until 7).map(_ => Timed.ns(loop())._2.toDouble / k))
    }
    Seq(
      Metric("bits.s_rank_ns", perOp(j => cs(sid(j)).s.rank(idx(j).toLong)), "ns"),
      Metric("bits.s_select_ns", perOp(j => cs(sid(j)).s(frag(j))), "ns"),
      Metric("bits.o_select_ns", perOp(j => cs(sid(j)).o(frag(j))), "ns"),
      Metric("bits.k_access_ns", perOp(j => cs(sid(j)).k(frag(j))), "ns"),
      Metric("bits.k_rank_ns", perOp(j => cs(sid(j)).k.rank(kind(j), frag(j))), "ns"),
      Metric("bits.b_access_ns", perOp(j => cs(sid(j)).b(frag(j))), "ns"),
    )
  }

  /** Row groups a pushed-down `[lo, hi)` index range plans to read. */
  private def groupsRead(path: String, lo: Long, hi: Long): Int = {
    val sb = new NeaTSScanBuilder(path)
    sb.pushFilters(Array(sources.GreaterThanOrEqual("idx", lo), sources.LessThan("idx", hi)))
    sb.build().toBatch.planInputPartitions().length
  }

  private def spark(in: LayerInputs, seed: Long): Seq[Metric] = {
    val t = in.table
    val n = t.values.length
    val rng = new java.util.Random(seed + 2)
    val (_, groups) = NeaTSFiles.readMeta(t.path)
    val g = groups(rng.nextInt(groups.length))
    val narrowLo = g.start + rng.nextInt(math.max(1, g.count - 1000 + 1))
    val narrowHi = math.min(g.start + g.count, narrowLo + 1000)
    val wideLo = rng.nextInt(n - n / 2 + 1).toLong
    val session = in.spark()
    val planNs = (0 until 11).map { _ =>
      val df = session.read.format(NeaTSDataSource.format).option("path", t.path).load()
        .where(col("idx") >= narrowLo && col("idx") < narrowHi).agg(sum("value"), count(lit(1)))
      Timed.ns(df.queryExecution.executedPlan)._2.toDouble
    }
    val decodeNs = ArrayBuffer[Double]()
    for (_ <- 0 until 3; grp <- groups)
      decodeNs += Timed.ns(Blackhole.consume(NeaTSFiles.readGroup(t.path, grp).range(0, grp.count).length))._2.toDouble
    Seq(
      Metric("sparkts.table_write_mbps", n * 8 / 1e6 / t.writeSeconds, "MB/s"),
      Metric("sparkts.table_bytes_per_value", dirBytes(new File(t.path)).toDouble / n, "B"),
      Metric("sparkts.plan_ms", Stats.median(planNs.drop(1)) / 1e6, "ms"),
      Metric("sparkts.groups_read.narrow", groupsRead(t.path, narrowLo, narrowHi).toDouble, "count"),
      Metric("sparkts.groups_read.wide", groupsRead(t.path, wideLo, wideLo + n / 2).toDouble, "count"),
      Metric("sparkts.group_decode_us", Stats.median(decodeNs) / 1e3, "us"),
    )
  }

  /** Writes the concatenated mix as one NeaTS table, for the `sparkts`
    * probes of the workloads that do not write a table themselves.
    */
  def writeTable(workDir: File, mix: Seq[Series]): TableOnDisk = {
    val values = mix.flatMap(_.values).toArray
    val dir = new File(workDir, "layers-table")
    deleteTree(dir)
    val (_, t) = Timed.ns(NeaTSFiles.write(dir.getPath, values))
    TableOnDisk(dir.getPath, values, t / 1e9)
  }

  def dirBytes(dir: File): Long = Option(dir.listFiles).map(_.map(_.length).sum).getOrElse(0L)

  def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
