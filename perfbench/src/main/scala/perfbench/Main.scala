package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.jobs.JobSpark

/** Runs one workload in one JVM and prints its result as the last line.
  *
  * Usage: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> [--baseline 1] [--spans <file>]`. The Spark master comes
  * from `SPARK_MASTER`, as for every entrypoint built on `JobSpark`.
  *
  *  - Untraced: three set-ups, then a fixed number of passes (at least
  *    three) of the workload's four calls in a closed loop (one client
  *    thread, each call issued after the last returned), about `--seconds`
  *    long, then the correctness gate. Reports end-to-end metrics: medians
  *    of wall time over set-ups and passes, minima of CPU time over passes.
  *  - Traced: one set-up, a warm-up pass, then each call untraced and traced
  *    back to back, the workload's replay and probes, then the gate. Reports
  *    per-layer metrics. `--baseline 1` keeps only the traced parts, for the
  *    single-threaded comparison run.
  */
object Main {

  /** One pass: wall and process CPU seconds, in total and per call. */
  final case class Pass(wallS: Double, cpuS: Double, callS: Seq[Double], callCpuS: Seq[Double],
                        jobs: Long, heapMb: Double)

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val name     = opt("workload")
    val seed     = opt("seed").toLong
    val seconds  = opt("seconds").toDouble
    val trace    = opt("trace") == "1"
    val baseline = opt.get("baseline").contains("1")
    Workloads(name) // rejects an unknown name before Spark starts

    var failed   = 0
    var attempts = 0
    val errors   = mutable.ArrayBuffer.empty[String]
    var ctx: Ctx = null
    var wl: Workload = null

    def setUp(): Double = timed {
      SparkSession.getActiveSession.foreach(_.stop())
      val spark    = JobSpark.session("perfbench")
      val listener = new SpanListener
      spark.sparkContext.addSparkListener(listener)
      ctx = new Ctx(spark, new Tracer(spark.sparkContext, listener, enabled = trace))
      wl = Workloads(name)
      wl.setup(ctx, seed)
      wl.warmUp()
    }

    /** Call `i` of the workload, timed as (wall, CPU) seconds; a call that
      * throws counts as failed.
      */
    def attempt(i: Int): (Double, Double) = {
      attempts += 1
      val cpu0 = cpuS()
      val wall = timed {
        try wl.call(i)
        catch { case e: Exception => failed += 1; errors += s"${wl.callNames(i)}: $e" }
      }
      (wall, cpuS() - cpu0)
    }

    def pass(): Pass = {
      ctx.tracer.drain()
      val before = ctx.tracer.listener.total
      val t0     = System.nanoTime()
      val cpu0   = cpuS()
      val calls  = wl.callNames.indices.map(attempt)
      val wallS  = (System.nanoTime() - t0) / 1e9
      val cpu    = cpuS() - cpu0
      ctx.tracer.drain()
      Pass(wallS, cpu, calls.map(_._1), calls.map(_._2), (ctx.tracer.listener.total - before).jobs, liveHeapMb())
    }

    val metrics = mutable.LinkedHashMap.empty[String, Double]
    val named   = mutable.LinkedHashMap.empty[String, Double]
    var passes  = 0

    if (!trace) {
      val setups = (1 to 3).map(_ => setUp())
      // A fixed number of passes per workload, not a deadline: a deadline
      // near the end of a pass would let noise decide how many passes count.
      // The first pass runs slower while the JIT compiles; with three or more
      // passes the medians below leave it out.
      val done = (1 to math.max(3, math.round(seconds / wl.nominalPassS).toInt)).map(_ => pass())
      passes = done.size
      done.zipWithIndex.foreach { case (p, k) =>
        named(s"pass${k + 1}.wall_s") = p.wallS
        named(s"pass${k + 1}.cpu_s") = p.cpuS
      }
      metrics("setup_s") = median(setups)
      metrics("wall_s") = median(done.map(_.wallS))
      // CPU time falls from pass to pass while the JIT compiles (57, 33 and
      // 28 s in one b-tables run); the smallest is the settled value.
      metrics("cpu_s") = done.map(_.cpuS).min
      metrics("spark_jobs") = median(done.map(_.jobs.toDouble))
      metrics("driver_live_heap_mb") = done.map(_.heapMb).max
      wl.callNames.indices.foreach { i =>
        metrics(s"call${i + 1}_s") = median(done.map(_.callS(i)))
        metrics(s"call${i + 1}_cpu_s") = done.map(_.callCpuS(i)).min
        named(wl.callNames(i)) = metrics(s"call${i + 1}_s")
        named(wl.callNames(i).stripSuffix("_s") + "_cpu_s") = metrics(s"call${i + 1}_cpu_s")
      }
    } else {
      val t    = setUp()
      val tr   = ctx.tracer
      // The local[1] baseline skips the warm-up, so its traced calls are its
      // first pass; `first_pass_s` compares it with this run's warm-up.
      if (!baseline) { tr.enabled = false; metrics("first_pass_s") = pass().wallS; tr.enabled = true }
      // Each call runs untraced and then traced, back to back, so that the
      // overhead compares the two at nearly the same JVM warmth.
      val untracedS = mutable.ArrayBuffer.empty[Double]
      val tracedS   = wl.callNames.indices.map { i =>
        if (!baseline) {
          tr.enabled = false
          untracedS += attempt(i)._1
          tr.enabled = true
        }
        tr.span("pass")(tr.span(s"call.${wl.callNames(i)}")(attempt(i)._1))
      }
      passes = 1
      wl.traceExtra(baseline)
      tr.drain()
      val whole    = tr.counts("pass")
      metrics ++= layerMetrics(ctx)
      metrics("spark.stages") = whole.stages.toDouble
      metrics("spark.tasks") = whole.tasks.toDouble
      metrics("spark.shuffle_bytes") = whole.shuffleBytes.toDouble
      metrics("spark.task_gc_s") = whole.gcMs / 1000.0
      metrics("pass_s") = tracedS.sum
      if (baseline) metrics("first_pass_s") = tracedS.sum
      if (!baseline) {
        metrics("trace.overhead_s") = tracedS.sum - untracedS.sum
        wl.callNames.indices.foreach { i =>
          named(wl.callNames(i) + ".traced") = tracedS(i)
          named(wl.callNames(i) + ".untraced") = untracedS(i)
        }
      }
      named("setup_s") = t
      opt.get("spans").foreach { f =>
        java.nio.file.Files.writeString(java.nio.file.Paths.get(f), tr.toJson)
      }
      tr.selfByLayer.foreach { case (l, s) => named(s"self_s.$l") = s }
    }

    if (!baseline) {
      try wl.gate()
      catch { case e: Exception => ctx.check("correctness gate ran")(throw e) }
      attempts += ctx.checks.size
      failed += ctx.checks.count(!_._2)
    }

    val sc  = ctx.spark.sparkContext
    val env = Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> ctx.spark.conf.get("spark.sql.shuffle.partitions"),
      "spark_version" -> ctx.spark.version,
      "jvm_version" -> System.getProperty("java.version"),
      "seed" -> seed,
    ) ++ wl.inputSizes.map { case (k, v) => s"input.$k" -> v }
    val checks = ctx.checks.map { case (n, ok, d) => Json.obj(Seq("check" -> n, "ok" -> ok, "detail" -> d)) }
    val result = Json.obj(Seq(
      "env" -> Json.Raw(Json.obj(env)),
      "metrics" -> Json.Raw(Json.obj(metrics.toSeq)),
      "named" -> Json.Raw(Json.obj(named.toSeq)),
      "aliases" -> Json.Raw(Json.obj(wl.callNames.zipWithIndex.flatMap { case (n, i) =>
        Seq(s"call${i + 1}_s" -> n, s"call${i + 1}_cpu_s" -> (n.stripSuffix("_s") + "_cpu_s")) })),
      "attempted" -> attempts,
      "failed" -> failed,
      "passes" -> passes,
      "checks" -> Json.Raw(checks.mkString("[", ", ", "]")),
      "notes" -> Json.Raw((ctx.notes ++ errors).map(Json.str).mkString("[", ", ", "]")),
    ))
    ctx.spark.stop()
    println("PERFBENCH_RESULT " + result)
  }


  /** Per-layer numbers from the spans and counters of a traced run. */
  def layerMetrics(ctx: Ctx): Seq[(String, Double)] = {
    val tr = ctx.tracer
    def d(n: String) = tr.durS(n)
    val engineSpans = Seq("engine.run.after_wm", "engine.run.continuous")
    val analytics   = Seq("continuous", "delay", "after_wm", "wm_latency", "buffer", "arrival_order", "proc_time")
    val engine      = engineSpans.map(tr.counts).reduce(_ + _)
    val replayed    = d("core.plan") + d("core.execute") + d("tvr.diff")
    val c           = ctx.counters
    Seq(
      "core.register_s" -> d("core.register"),
      "core.alignment_s" -> d("core.alignment"),
      "core.parse_s" -> d("core.parse"),
      "core.plan_s" -> d("core.plan"),
      "core.execute_s" -> d("core.execute"),
      "core.execute_jobs" -> tr.counts("core.execute").jobs.toDouble,
      "core.ticks" -> c("core.ticks"),
      "core.snapshot_rows" -> c("core.snapshot_rows"),
    ) ++ Seq("stream", "after_wm", "delay_wm").flatMap { m =>
      Seq(
        s"core.materialize_s.$m" -> (d(s"call.q7_${m}_s") - replayed),
        s"core.changelog_rows.$m" -> c(s"core.changelog_rows.$m"),
        s"core.undo_rows.$m" -> c(s"core.undo_rows.$m"),
      )
    } ++ Seq(
      "tvr.snapshot_s" -> d("tvr.snapshot"),
      "tvr.snapshot_jobs" -> tr.counts("tvr.snapshot").jobs.toDouble,
      "tvr.diff_s" -> d("tvr.diff"),
      "tvr.diff_rows" -> c("tvr.diff_rows"),
      "tvr.watermark_s" -> d("tvr.watermark"),
      "tvr.watermark_calls" -> c("tvr.watermark_calls"),
      "tvr.perfect_wm_s" -> d("tvr.perfect_wm"),
      "engine.run_s.after_wm" -> d("engine.run.after_wm"),
      "engine.run_s.continuous" -> d("engine.run.continuous"),
      "engine.jobs" -> engine.jobs.toDouble,
      "engine.jobs_per_batch" -> engine.jobs / math.max(1.0, c("engine.batches")),
      "engine.stages" -> engine.stages.toDouble,
      "engine.shuffle_bytes" -> engine.shuffleBytes.toDouble,
      "engine.state_windows_max" -> c("engine.state_windows_max"),
      "engine.retained_rows_max" -> c("engine.retained_rows_max"),
      "engine.emitted_rows" -> c("engine.emitted_rows"),
      "engine.dropped_rows" -> c("engine.dropped_rows"),
    ) ++ analytics.map(a => s"analytics.${a}_s" -> d(s"analytics.$a")) :+
      ("analytics.jobs" -> analytics.map(a => tr.counts(s"analytics.$a").jobs).sum.toDouble)
  }

  /** CPU seconds used by this JVM so far, all threads. */
  private def cpuS(): Double =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      .getProcessCpuTime / 1e9

  private def timed(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  def median(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.toVector.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Old-generation bytes in use after a full collection, in MiB: the
    * driver's live heap, without the garbage that happens to be around.
    */
  private def liveHeapMb(): Double = {
    System.gc()
    val old = ManagementFactory.getMemoryPoolMXBeans.asScala
      .find(p => p.getName.contains("Old Gen") || p.getName.contains("Tenured"))
    old.flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed / 1048576.0)
      .getOrElse((Runtime.getRuntime.totalMemory - Runtime.getRuntime.freeMemory) / 1048576.0)
  }
}
