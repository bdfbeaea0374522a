package repro.engine

import java.sql.Timestamp
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.nexmark.NexGen
import repro.tvr.Times

class MicroBatchEngineSpec extends SparkSpec with PropSupport {
  import MicroBatchEngineSpec._
  import spark.implicits._

  private val TenMin = 10 * Times.MinuteMs
  private lazy val engine = new MicroBatchEngine(spark)

  private lazy val events: DataFrame =
    NexGen.bids(spark, 0.002, meanSkewMs = 2 * Times.MinuteMs)
      .select("bidtime", "price", "item", "ptime")
      .persist()

  private def tops(df: DataFrame): Map[Long, (Long, String)] =
    df.collect().map { r =>
      Times.ms(r.getTimestamp(0)) -> (r.getLong(3), r.getString(4))
    }.toMap

  private lazy val truth: Map[Long, (Long, String)] = {
    val t = StreamAnalytics.truthTops(events, TenMin).collect()
      .map(r => r.getLong(0) -> (r.getStruct(1).getLong(0), r.getStruct(1).getString(2)))
    t.toMap
  }

  test("continuous mode converges to the batch ground truth") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    assert(tops(res.finalOutput) == truth)
    assert(res.totalDropped == 0)
  }

  test("after-watermark mode with the perfect watermark drops nothing and matches truth") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(res.totalDropped == 0, "perfect watermark never admits late data")
    assert(tops(res.finalOutput) == truth)
  }

  test("after-watermark emits exactly one row per closed window") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    val closed = truth.size - res.perBatch.last.stateWindows
    assert(res.totalEmitted == closed)
  }

  test("continuous mode emits at least as much as after-watermark") {
    val c = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(c.totalEmitted >= w.totalEmitted)
  }

  test("watermark GC bounds retained input, continuous retains everything") {
    val c = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(c.maxRetainedRows == events.count())
    assert(w.maxRetainedRows < c.maxRetainedRows,
      s"GC should retain less: ${w.maxRetainedRows} vs ${c.maxRetainedRows}")
  }

  test("state never exceeds the number of windows; GC keeps it near the open set") {
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(w.maxStateWindows <= truth.size)
    assert(w.perBatch.last.stateWindows <= 2) // only the tail window(s) stay open
  }

  test("per-batch metrics are monotone where they should be") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    val arrived = res.perBatch.map(_.arrivedRows)
    assert(arrived == arrived.sorted)
    val wms = res.perBatch.map(_.wmMs)
    assert(wms == wms.sorted)
  }

  test("micro-batching coalesces updates: engine emits no more than per-event continuous") {
    val res      = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val perEvent = StreamAnalytics.continuousEmissions(events, TenMin)
    // windows <= engine <= per-event: at least one insert per window, and
    // batching can only merge the per-event changes.
    assert(truth.size <= res.totalEmitted && res.totalEmitted <= perEvent)
    // A window whose top changes c times emits c inserts and c - 1 undos:
    // the excess over one row per window is two rows per revision.
    assert((res.totalEmitted - truth.size) % 2 == 0)
    assert(res.totalEmitted > truth.size, "8 batches should revise some window")
  }

  test("a single batch emits exactly one insert per window and no undo") {
    val res = engine.run(events, TenMin, numBatches = 1, EngineMode.Continuous)
    assert(res.totalEmitted == truth.size)
  }

  test("more batches means finer coalescing (emissions grow with batch count)") {
    val few  = engine.run(events, TenMin, numBatches = 2, EngineMode.Continuous)
    val many = engine.run(events, TenMin, numBatches = 16, EngineMode.Continuous)
    assert(many.totalEmitted >= few.totalEmitted)
  }

  test("in-order input: arrival-time batching closes windows promptly") {
    val inOrder = NexGen.bids(spark, 0.002, meanSkewMs = 0)
      .select("bidtime", "price", "item", "ptime")
    val res = engine.run(inOrder, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(res.totalDropped == 0)
    val t = StreamAnalytics.truthTops(inOrder, TenMin).count()
    assert(res.totalEmitted >= t - 1) // all but (possibly) the final open window
  }

  /** Spark jobs launched while `body` runs. */
  private def jobsOf(body: => Unit): Long = {
    val sc   = spark.sparkContext
    val jobs = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusDrain(sc) }
    finally sc.removeSparkListener(listener)
    jobs.get
  }

  test("a run launches at most two Spark jobs per batch, plus two") {
    events.count()
    for (mode <- Seq(EngineMode.Continuous, EngineMode.AfterWatermark); batches <- Seq(3, 8)) {
      val jobs = jobsOf(engine.run(events, TenMin, batches, mode))
      assert(jobs <= 2 + 2 * batches, s"$mode, $batches batches: $jobs jobs")
    }
  }

  // Prices 1..3 tie often; arrival is in order or skewed by up to 40 min;
  // in one case in four the batch count exceeds the row count, leaving
  // trailing batches empty. `(ptime, bidtime)` is kept distinct: ntile
  // breaks ties on it.
  private val genCase: Gen[(Seq[Bid], Int)] = {
    val bid = for {
      bidMin <- Gen.choose(0, 90)
      sec    <- Gen.choose(0, 59)
      price  <- Gen.choose(1L, 3L)
      item   <- Gen.oneOf("A", "B", "C")
    } yield (bidMin * Times.MinuteMs + sec * 1000L, price, item)
    for {
      n      <- Gen.choose(1, 14)
      maxLag <- Gen.oneOf(0L, 40 * Times.MinuteMs)
      rows   <- Gen.listOfN(n, bid)
      lags   <- Gen.listOfN(n, Gen.choose(0L, maxLag))
      nb     <- Gen.frequency(3 -> Gen.choose(1, 4), 1 -> Gen.choose(n + 1, n + 2))
    } yield {
      val bids = rows.zip(lags).map { case ((t, p, i), lag) => Bid(t, p, i, t + lag) }
      (bids.distinctBy(b => (b.ptime, b.bidtime)), nb)
    }
  }

  test("every batch metric equals a driver-side model of the engine, in both modes") {
    checkProp(Prop.forAll(genCase) { case (bids, nb) =>
      val df = bids.map(b => (new Timestamp(b.bidtime), b.price, b.item, new Timestamp(b.ptime)))
        .toDF("bidtime", "price", "item", "ptime")
      Seq(false, true).forall { afterWm =>
        val mode = if (afterWm) EngineMode.AfterWatermark else EngineMode.Continuous
        val (want, wantTops) = model(bids, TenMin, nb, afterWm)
        val res = engine.run(df, TenMin, nb, mode)
        val gotTops = res.finalOutput.collect().map { r =>
          Times.ms(r.getTimestamp(1)) -> ((r.getLong(3), Times.ms(r.getTimestamp(2)), r.getString(4)))
        }.toMap
        assert(res.perBatch == want, s"$mode, $nb batches, $bids")
        assert(gotTops == wantTops, s"$mode, $nb batches, $bids")
        assert(res.totalEmitted == want.map(_.emitted).sum && res.totalDropped == want.map(_.dropped).sum)
        assert(res.maxStateWindows == want.map(_.stateWindows).max &&
          res.maxRetainedRows == want.map(_.retainedRows).max)
        true
      }
    }, minTests = 10)
  }
}

object MicroBatchEngineSpec {
  final case class Bid(bidtime: Long, price: Long, item: String, ptime: Long)

  private type Top = (Long, Long, String) // (price, bidtime, item)

  /** The engine's semantics, simulated row by row on the driver: the
    * batch metrics, and the final top per window keyed by `wend` (for
    * AfterWatermark, the tops it emitted).
    */
  def model(bids: Seq[Bid], windowMs: Long, numBatches: Int, afterWm: Boolean)
      : (Seq[BatchMetric], Map[Long, Top]) = {
    // ntile: arrival order, the first (rows mod batches) batches one row longer.
    val sorted = bids.sortBy(b => (b.ptime, b.bidtime))
    val (q, r) = (sorted.size / numBatches, sorted.size % numBatches)
    def batchOf(i: Int): Int = if (i < r * (q + 1)) i / (q + 1) else r + (i - r * (q + 1)) / q
    val batches = (0 until numBatches).map(b => sorted.indices.filter(batchOf(_) == b).map(sorted))
    // Perfect watermark: just below the earliest event time yet to arrive.
    val wm = (0 until numBatches).map { b =>
      batches.drop(b + 1).flatten.map(_.bidtime).minOption.getOrElse(Long.MaxValue / 2) - 1
    }
    def wend(b: Bid): Long = Math.floorDiv(b.bidtime, windowMs) * windowMs + windowMs
    val top  = (b: Bid) => (b.price, b.bidtime, b.item)
    val ord  = implicitly[Ordering[Top]]

    var tops    = Map.empty[Long, Top] // every window that accepted a row
    var emitted = Map.empty[Long, Top] // AfterWatermark: windows materialized
    val metrics = (0 until numBatches).map { b =>
      val wmPrev = if (b == 0) Long.MinValue else wm(b - 1)
      val (late, accepted) = batches(b).partition(x => afterWm && wend(x) <= wmPrev)
      val before = tops
      for (x <- accepted) tops = tops.updated(wend(x), tops.get(wend(x)).fold(top(x))(ord.max(_, top(x))))
      val changed = tops.keys.count(k => !before.get(k).contains(tops(k)))
      val undone  = tops.keys.count(k => before.get(k).exists(_ != tops(k)))
      val closing = tops.filter { case (k, _) => k > wmPrev && k <= wm(b) }
      emitted ++= closing
      val open    = tops.keys.count(k => !afterWm || k > wm(b))
      val arrived = batches.take(b + 1).map(_.size).sum
      val retained =
        if (afterWm) batches.take(b + 1).flatten.count(x => wend(x) > wm(b)) else arrived
      BatchMetric(b, wm(b), arrived, retained, open,
        if (afterWm) closing.size else changed + undone, late.size)
    }
    (metrics, if (afterWm) emitted else tops)
  }
}
