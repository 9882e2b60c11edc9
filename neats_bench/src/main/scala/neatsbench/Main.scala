package neatsbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** One JVM of a benchmark run:
  * {{{
  * Main --workload ingest|lookup --seed N --seconds S --trace 0|1
  *      [--fork I] [--scale F] [--corrupt 0|1] [--work-dir DIR]
  * }}}
  * One JVM ("fork") of a run: `run.py` starts several and takes medians
  * across them. Prints a context line, then as its last line one JSON object
  * with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
  * metrics, or with `--trace 1` the per-layer metrics.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v
      case other => sys.error(s"bad arguments: ${other.mkString(" ")}") }.toMap
    val cfg = RunConfig(
      workload = opts.getOrElse("workload", sys.error("--workload is required")),
      seed = opts.getOrElse("seed", "1").toLong,
      fork = opts.getOrElse("fork", "0").toInt,
      seconds = opts.getOrElse("seconds", "10").toDouble,
      trace = new Trace(opts.getOrElse("trace", "0") == "1"),
      scale = opts.getOrElse("scale", "1").toDouble,
      corrupt = opts.getOrElse("corrupt", "0") == "1",
      workDir = new File(opts.getOrElse("work-dir", "neats-bench-work")),
    )
    cfg.workDir.mkdirs()
    val out = new Outcome(cfg.corrupt)
    val wl: Workload = cfg.workload match {
      case "ingest" => new Ingest(cfg, out)
      case "lookup" => new Lookup(cfg, out)
      case other => sys.error(s"unknown workload $other")
    }
    try run(cfg, wl, out) finally Spark.stop()
  }

  private def run(cfg: RunConfig, wl: Workload, out: Outcome): Unit = {
    val s0 = JvmCounters.snapshot()
    val setupNs = (0 until wl.setupRepeats).map(_ => Timed.ns(cfg.trace.span("setup")(wl.setup()))._2.toDouble)
    val s1 = JvmCounters.snapshot()
    val (_, warmNs) = Timed.ns(cfg.trace.span("warmup")(wl.warmup()))
    val s2 = JvmCounters.snapshot()
    // Whole rounds only: every run attempts the same operations in the same
    // proportions, however long it runs.
    val t0 = System.nanoTime()
    var rounds = 0
    while (rounds == 0 || System.nanoTime() - t0 < cfg.seconds * 1e9) {
      cfg.trace.span("round")(wl.round())
      rounds += 1
    }
    val measureNs = System.nanoTime() - t0
    val s3 = JvmCounters.snapshot()
    val endToEnd = Metric("setup_s", Stats.median(setupNs) / 1e9, "s") +: wl.metrics

    val rt = ManagementFactory.getRuntimeMXBean
    println(Json.obj(Seq("context" -> Json.obj(Seq(
      "workload" -> Json.str(cfg.workload),
      "seed" -> cfg.seed.toString,
      "fork" -> cfg.fork.toString,
      "source_sha" -> Json.str(sys.props.getOrElse("neatsbench.sha", "unknown")),
      "jvm" -> Json.str(s"${rt.getVmName} ${rt.getVmVersion}"),
      "jvm_flags" -> rt.getInputArguments.asScala.map(Json.str).mkString("[", ", ", "]"),
      "cores" -> Runtime.getRuntime.availableProcessors.toString,
      "setup_repeats" -> wl.setupRepeats.toString,
      "warmup_s" -> Json.num(warmNs / 1e9),
      "rounds" -> rounds.toString,
      "measure_s" -> Json.num(measureNs / 1e9),
      "traced" -> cfg.trace.enabled.toString,
    )))))
    if (out.messages.nonEmpty) out.messages.foreach(m => Console.err.println(s"wrong answer: $m"))

    val metrics =
      if (!cfg.trace.enabled) endToEnd
      else {
        // End-to-end numbers of the traced run; their difference to an
        // untraced run of the same seed is the tracing overhead.
        println(Json.obj(Seq("traced_end_to_end" -> Json.obj(endToEnd.map(m => m.name -> Json.num(m.value))))))
        cfg.trace.write(new File(cfg.workDir, s"trace-${cfg.workload}-${cfg.seed}.json"))
        val layers = Layers.probe(wl.layerInputs, cfg.seed)
        layers ++ Seq(
          Metric("jvm.gc_ms", (s3.gcMs - s0.gcMs).toDouble, "ms"),
          Metric("jvm.gc_ms.measure", (s3.gcMs - s2.gcMs).toDouble, "ms"),
          Metric("jvm.alloc_mb.setup", (s1.allocBytes - s0.allocBytes) / 1e6, "MB"),
          Metric("jvm.alloc_mb.measure", (s3.allocBytes - s2.allocBytes) / 1e6, "MB"),
        )
      }
    println(Json.obj(Seq(
      "correct" -> out.correct.toString,
      "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    )))
  }
}
