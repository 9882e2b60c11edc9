package neatsbench

import repro.data.TimeSeries

/** One input series: a named analogue window and the error bound used when
  * it is compressed lossily.
  */
final case class Series(name: String, values: Array[Long], lossyEps: Long) {
  def n: Int = values.length
  def rawBytes: Long = n.toLong * 8
}

/** The benchmark's inputs. Everything that depends on `--seed` is drawn
  * here; the program only ever sees the generated arrays.
  */
object Inputs {

  /** The `ingest`/`lookup` mix: long nonlinear fragments (IT), plateaus and
    * jumps (US), short spiky fragments (ECG), exponential bursts (DU) and
    * about 25 bits of noise (BT), at their `TimeSeries.benchSizes` lengths.
    * The lossy eps of each is the paper's Table II choice on the analogue at
    * that length (`Harness.epsFor`: the smallest grid eps at which NeaTS-L
    * beats lossless NeaTS), fixed here so every seed uses the same one.
    */
  val mix: Seq[(String, Int, Long)] = Seq(
    ("IT", 100000, 63L),
    ("US", 100000, 7L),
    ("ECG", 100000, 15L),
    ("DU", 20000, 8191L),
    ("BT", 10000, 1073741823L),
  )

  /** The analogue `name` at length n, taken as a seeded window of the
    * analogue generated at 9n/8 points, so each seed sees other data of the
    * same character.
    */
  def window(name: String, n: Int, rng: java.util.Random): Array[Long] = {
    val ext = n + n / 8
    val full = TimeSeries.dataset(name, ext).longs
    val off = rng.nextInt(ext - n + 1)
    java.util.Arrays.copyOfRange(full, off, off + n)
  }

  def mixSeries(seed: Long, scale: Double): Seq[Series] = {
    val rng = new java.util.Random(seed)
    mix.map { case (name, n, eps) => Series(name, window(name, scaled(n, scale), rng), eps) }
  }

  /** Epoch-nanosecond timestamps near 1.76e18 in 1 s steps with up to 1 ms
    * of jitter. It does not depend on the seed: `NeaTS.compress` fails on it
    * every time, because fitting runs in doubles against absolute values.
    */
  val nanoTimestamps: Array[Long] = {
    val rng = new java.util.Random(1760000000L)
    val t0 = 1760000000000000000L
    Array.tabulate(1000)(i => t0 + i * 1000000000L + rng.nextInt(1000000))
  }

  /** `k` seeded positions (series, index), uniform over all points of series
    * of the given lengths, each leaving room for `len` points from there.
    */
  def positions(lengths: Array[Int], k: Int, len: Int, rng: java.util.Random): (Array[Int], Array[Int]) = {
    val total = lengths.map(_.toLong).sum
    val sid = new Array[Int](k)
    val idx = new Array[Int](k)
    for (j <- 0 until k) {
      var pos = (rng.nextDouble() * total).toLong
      var s = 0
      while (pos >= lengths(s)) { pos -= lengths(s); s += 1 }
      sid(j) = s
      idx(j) = math.min(pos.toInt, lengths(s) - len)
    }
    (sid, idx)
  }

  private def scaled(n: Int, scale: Double): Int = math.max(2048, (n * scale).toInt)
}
