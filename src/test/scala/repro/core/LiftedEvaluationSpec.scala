package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.paperexample.PaperDataset
import repro.tvr.{Times, Tvr, WatermarkTimeline}

/** Lifted evaluation (one execution over all ticks) against the per-tick
  * oracle (one execution per tick): the same changelog row for row, the
  * same table as a bag — on the paper's listings, on random changelogs,
  * and on every plan shape that must fall back to per-tick execution.
  */
class LiftedEvaluationSpec extends SparkSpec with PropSupport {
  import spark.implicits._

  private val q7 = PaperDataset.q7Sql

  private def rows(df: DataFrame): Seq[Seq[Any]] = df.collect().toSeq.map(_.toSeq)

  /** Both evaluations of `sql` at `now`, compared in order when the
    * result is a changelog and as bags otherwise.
    */
  private def assertLiftedMatchesPerTick(s: StreamSqlSession, sql: String, now: Long): Unit = {
    val lifted  = s.sql(sql, now)
    val perTick = s.sqlPerTick(sql, now)
    if (lifted.columns.contains("undo")) assert(rows(lifted) == rows(perTick), sql)
    else assert(rows(lifted).sortBy(_.mkString("|")) == rows(perTick).sortBy(_.mkString("|")), sql)
  }

  private def withItems(s: StreamSqlSession): StreamSqlSession = {
    s.registerTable("Item", Seq(("A", "art"), ("D", "drums"), ("F", "fan"), ("Z", "zither"))
      .toDF("item", "descr"))
    s
  }

  private def paperSession: StreamSqlSession = {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s
  }

  // ------------------------------------------------------------ listings

  test("Q7 lifts under every EMIT mode the paper lists") {
    val s = paperSession
    for (emit <- Seq("EMIT STREAM", "EMIT STREAM AFTER WATERMARK",
                     "EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES AND AFTER WATERMARK"))
      assert(s.liftFallbackReason(s"$q7 $emit").isEmpty, emit)
  }

  test("every L3–L14 query text gives the per-tick result") {
    val s = paperSession
    val listings = Seq(
      q7 -> "8:21", q7 -> "8:13",                                   // L3, L4
      PaperDataset.tumbleSql -> "8:21", PaperDataset.tumbleGroupSql -> "8:21", // L5, L6
      PaperDataset.hopSql -> "8:21", PaperDataset.hopGroupSql -> "8:21",       // L7, L8
      s"$q7 EMIT STREAM" -> "8:21",                                 // L9
      s"$q7 EMIT AFTER WATERMARK" -> "8:13",                        // L10
      s"$q7 EMIT AFTER WATERMARK" -> "8:16",                        // L11
      s"$q7 EMIT AFTER WATERMARK" -> "8:21",                        // L12
      s"$q7 EMIT STREAM AFTER WATERMARK" -> "8:21",                 // L13
      s"$q7 EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES" -> "8:21", // L14
    )
    for ((sql, now) <- listings) assertLiftedMatchesPerTick(s, sql, Times.hm(now))
  }

  test("the windowing TVFs lift as streams (Tumble's projection, Hop's generator)") {
    val s = paperSession
    for (sql <- Seq(PaperDataset.tumbleSql, PaperDataset.tumbleGroupSql,
                    PaperDataset.hopSql, PaperDataset.hopGroupSql)) {
      assert(s.liftFallbackReason(sql).isEmpty, sql)
      assertLiftedMatchesPerTick(s, s"$sql EMIT STREAM", Times.hm("8:21"))
    }
  }

  test("distinct, union, sort and the liftable joins give the per-tick changelog") {
    val s = withItems(paperSession)
    val liftable = Seq(
      "SELECT DISTINCT bidtime, item FROM Bid",
      "SELECT item, price FROM Bid WHERE price < 3 UNION ALL SELECT item, price FROM Bid WHERE price > 4",
      "SELECT item, price FROM Bid ORDER BY price",
      "SELECT b.item, i.descr FROM Bid b LEFT OUTER JOIN Item i ON b.item = i.item",
      "SELECT b.item, i.descr FROM Bid b RIGHT OUTER JOIN Item i ON b.item = i.item",
      "SELECT b.item FROM Bid b LEFT SEMI JOIN Item i ON b.item = i.item",
      "SELECT b.item FROM Bid b LEFT ANTI JOIN Item i ON b.item = i.item",
      "SELECT b.item, i.descr FROM Bid b CROSS JOIN Item i WHERE b.price > 4",
    )
    for (sql <- liftable) {
      assert(s.liftFallbackReason(sql).isEmpty, sql)
      assertLiftedMatchesPerTick(s, s"$sql EMIT STREAM", Times.hm("8:21"))
    }
  }

  // ------------------------------------------------------------ fallback

  test("every unliftable shape says why and still gives the per-tick result") {
    val s = withItems(paperSession)
    val fallbacks = Seq(
      "SELECT COUNT(*) AS n FROM Bid"                                    -> "global aggregate",
      "SELECT item, price FROM Bid ORDER BY price LIMIT 2"               -> "LIMIT",
      "SELECT b.item, i.descr FROM Bid b FULL OUTER JOIN Item i ON b.item = i.item" -> "FULL OUTER join",
      "SELECT item FROM Bid WHERE price = (SELECT MAX(price) FROM Bid)"  -> "subquery",
      "SELECT item, rank() OVER (ORDER BY price) AS r FROM Bid"          -> "window function",
    )
    for ((sql, why) <- fallbacks) {
      val reason = s.liftFallbackReason(sql)
      assert(reason.exists(_.contains(why)), s"$sql: $reason")
      assertLiftedMatchesPerTick(s, s"$sql EMIT STREAM", Times.hm("8:21"))
    }
  }

  // ------------------------------------------------------------ random

  private val base = Times.hm("8:00")
  private def min(n: Int): Long = base + n * Times.MinuteMs

  /** A random Bid changelog over ptimes 8:01..8:08: small prices (ties),
    * retractions (some at the insert's own ptime, a tick with no net
    * change), and a watermark whose advances may fall between or before
    * any data (ticks where no input changes).
    */
  private val genCase: Gen[(Seq[(Long, Boolean, Seq[Any])], WatermarkTimeline)] = {
    val bid = for {
      p       <- Gen.choose(1, 6)
      lag     <- Gen.choose(0, 5)
      price   <- Gen.choose(1, 3)
      item    <- Gen.oneOf("A", "B", "D")
      retract <- Gen.option(Gen.choose(0, 2))
    } yield {
      val row = Seq[Any](Times.ts(min(p - lag)), price, item)
      (min(p), false, row) +: retract.toSeq.map(r => (min(p + r), true, row))
    }
    for {
      bids  <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, bid))
      wmAt  <- Gen.someOf(0 to 9)
      steps <- Gen.listOfN(wmAt.size, Gen.choose(0, 3))
    } yield {
      val values = steps.scanLeft(-4)(_ + _).tail
      (bids.flatten, WatermarkTimeline(wmAt.toVector.sorted.zip(values).map { case (p, v) => (min(p), min(v)) }))
    }
  }

  // The static Item table changes at ptime 0, before any bid: every case
  // has a tick where Bid is empty and Item is not, and a bid retracted
  // before any other arrives empties Bid again at a later tick. About
  // five cases in six hold a retraction.
  test("random changelogs with retractions, ties and empty ticks, and stream-table joins") {
    val queries = Seq(
      s"$q7 EMIT STREAM",
      s"$q7 EMIT STREAM AFTER WATERMARK",
      s"$q7 EMIT STREAM AFTER DELAY INTERVAL '2' MINUTES AND AFTER WATERMARK",
      "SELECT b.bidtime, b.item, i.descr, b.price FROM Bid b JOIN Item i ON b.item = i.item",
      "SELECT b.item, b.price, i.descr FROM Bid b LEFT OUTER JOIN Item i ON b.item = i.item",
      "SELECT b.item, b.price, i.descr FROM Bid b RIGHT OUTER JOIN Item i ON b.item = i.item",
      "SELECT b.item, b.price FROM Bid b LEFT SEMI JOIN Item i ON b.item = i.item AND i.descr < 'e'",
      "SELECT i.item FROM Item i LEFT ANTI JOIN Bid b ON b.item = i.item",
      "SELECT DISTINCT bidtime, price FROM Bid",
      "SELECT item FROM Bid WHERE price < 2 UNION ALL SELECT item FROM Item",
      "SELECT bidtime, item FROM Bid WHERE price < 3 UNION SELECT bidtime, item FROM Bid WHERE price > 1",
    ).map(q => if (q.contains("EMIT")) q else s"$q EMIT STREAM")
    val shapes = withItems(paperSession)
    for (q <- queries) assert(shapes.liftFallbackReason(q).isEmpty, q)
    checkProp(Prop.forAll(genCase) { case (changes, wm) =>
      val s = new StreamSqlSession(spark)
      s.registerStream("Bid", Tvr.ofRows(spark, PaperDataset.bidSchema, changes).withWatermark("bidtime", wm))
      withItems(s)
      queries.foreach(assertLiftedMatchesPerTick(s, _, min(12)))
      true
    }, minTests = 10)
  }
}
