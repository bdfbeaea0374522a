package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.engine.EngineResult
import repro.experiments.Experiments
import repro.tvr.Times

/** One workload: the inputs it generates from the seed, the four calls of
  * a pass, the checks made after the timed region, and the per-layer work a
  * traced run adds.
  */
trait Workload {
  /** Names of the four calls of a pass, as metrics in seconds. */
  def callNames: Seq[String]
  /** About how long a pass takes on 4 cores; a run of `s` seconds
    * measures `s / nominalPassS` passes, rounded, and at least three.
    */
  def nominalPassS: Double
  def setup(ctx: Ctx, seed: Long): Unit
  /** Input rows by input name, recorded with every result. */
  def inputSizes: Seq[(String, Long)]
  def warmUp(): Unit
  def call(i: Int): Unit
  def gate(): Unit
  /** Per-layer work of a traced run that the four calls do not show:
    * the tick replay of the SQL path, and the layers the calls never enter,
    * run on the workload's own input. Checks are skipped on a `baseline` run.
    */
  def traceExtra(baseline: Boolean): Unit
}

object Workloads {
  val MeanSkewMs: Long = 2 * Times.MinuteMs

  val names: Seq[String] = Seq("q7-fine-ticks", "q7-bulk-ticks", "b-tables")

  def apply(name: String): Workload = name match {
    // Every bid is its own tick and the watermark ticks every minute: the
    // per-tick fixed cost of the SQL path dominates. Bids arrive in order, so
    // every seed gives the same seven ticks.
    case "q7-fine-ticks" =>
      new Q7Workload(bids = 6, gapMs = 1000L, skewMs = 0L, coarseTicks = 0, delay = "'1' MINUTE", nominalPassS = 6.5)
    // Few ticks with thousands of rows and groups (two bids per window) each:
    // driver-side diff and the EMIT state machine, quadratic in groups, dominate.
    case "q7-bulk-ticks" =>
      new Q7Workload(bids = 4000, gapMs = 5 * Times.MinuteMs, skewMs = MeanSkewMs, coarseTicks = 3,
        delay = "'1' HOUR", nominalPassS = 8.0)
    case "b-tables"      => new BTablesWorkload(bids = 10000, b4Bids = 5000, probeBids = 6)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'; known: ${names.mkString(", ")}")
  }

  /** Run the layers a Q7 workload never enters on its own bids. */
  def engineAndAnalytics(ctx: Ctx, bids: DataFrame, check: Boolean): Unit = {
    val bt = new BTables(ctx)
    val b1 = bt.b1(bids)
    val (gc, noGc) = bt.b2(bids)
    bt.b3(bids)
    bt.b4(Seq(bids))
    if (check) bt.gateEngine(bids, gc, noGc, b1.head)
  }
}

final class Q7Workload(bids: Long, gapMs: Long, skewMs: Long, coarseTicks: Int, delay: String,
                       val nominalPassS: Double) extends Workload {
  private var ctx: Ctx         = _
  private var input: DataFrame = _
  private var q7: Q7           = _
  private val results          = mutable.Map.empty[String, Array[Row]]

  val callNames: Seq[String] = Q7.Modes.map(m => s"q7_${m}_s")

  def setup(c: Ctx, seed: Long): Unit = {
    ctx = c
    input = Gen.bids(ctx.spark, bids, seed, gapMs, skewMs, coarseTicks).persist()
    input.count()
    q7 = new Q7(ctx, input, if (coarseTicks > 0) Gen.tickMs(bids, gapMs, coarseTicks) else Times.MinuteMs, delay)
  }

  def inputSizes: Seq[(String, Long)] = Seq("bids" -> bids)

  def warmUp(): Unit = q7.call("table")

  def call(i: Int): Unit = results(Q7.Modes(i)) = q7.call(Q7.Modes(i))

  def gate(): Unit = q7.gate(results.toMap)

  def traceExtra(baseline: Boolean): Unit = {
    q7.replay()
    Workloads.engineAndAnalytics(ctx, input, check = !baseline)
    // Last, on a warm JVM: the listings alone launch about 320 jobs.
    if (!baseline)
      ctx.check("L3-L14 listings match the paper")(Experiments.listings(ctx.spark).forall(_.matches))
  }
}

final class BTablesWorkload(bids: Long, b4Bids: Long, probeBids: Long) extends Workload {
  private var ctx: Ctx                 = _
  private var bt: BTables              = _
  private var ev: DataFrame            = _
  private var variants: Seq[DataFrame] = _
  private var b1: Seq[Long]                      = _
  private var b2: (EngineResult, EngineResult)   = _
  private var b3: (Double, Seq[(Double, Long)])  = _
  private var b4: Seq[(Double, Double)]          = _

  val callNames: Seq[String] = Seq("b1_s", "b2_s", "b3_s", "b4_s")
  val nominalPassS: Double   = 9.0

  def setup(c: Ctx, seed: Long): Unit = {
    ctx = c
    bt = new BTables(ctx)
    ev = Gen.bids(ctx.spark, bids, seed, 1000L, Workloads.MeanSkewMs).persist()
    ev.count()
    variants = BTables.SkewsMin.map { s =>
      val v = Gen.bids(ctx.spark, b4Bids, seed, 1000L, s * Times.MinuteMs).persist()
      v.count()
      v
    }
  }

  def inputSizes: Seq[(String, Long)] =
    Seq("bids" -> bids, "b4_bids_per_variant" -> b4Bids, "b4_variants" -> variants.size.toLong)

  def warmUp(): Unit = BTables.windows(ev)

  def call(i: Int): Unit = i match {
    case 0 => b1 = bt.b1(ev)
    case 1 => b2 = bt.b2(ev)
    case 2 => b3 = bt.b3(ev)
    case 3 => b4 = bt.b4(variants)
  }

  def gate(): Unit = {
    bt.gateB1(ev, b1)
    bt.gateB2(ev, b2._1, b2._2, b1.head)
    bt.gateB3(b3)
    bt.gateB4(b4)
  }

  /** The SQL path never runs here, so its layers are measured on the first
    * `probeBids` bids of the B1 input, as fine ticks.
    */
  def traceExtra(baseline: Boolean): Unit = {
    val prefix = ev.where(unix_millis(col("bidtime")) < probeBids * 1000L).persist()
    val q7 = new Q7(ctx, prefix, Times.MinuteMs, "'1' MINUTE")
    val results = Q7.Modes.map(m => m -> ctx.span(s"call.q7_${m}_s")(q7.call(m))).toMap
    if (!baseline) q7.gate(results)
    q7.replay()
    prefix.unpersist()
  }
}
