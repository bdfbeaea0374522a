package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

class GenSpec extends AnyFunSuite {

  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .appName("perfbench-gen")
    .config("spark.sql.session.timeZone", "UTC")
    .getOrCreate()

  private def rows(partitions: Int, ticks: Int = 0) =
    Gen.bids(spark, 5000, seed = 42, gapMs = 1000L, meanSkewMs = 120000L, ticks, partitions)
      .collect().map(_.toSeq).toSeq

  test("inputs do not depend on the partition count") {
    assert(rows(1) == rows(7))
    assert(rows(1, ticks = 4) == rows(3, ticks = 4))
  }

  test("the seed changes the inputs") {
    val other = Gen.bids(spark, 5000, seed = 43, gapMs = 1000L, meanSkewMs = 120000L).collect().map(_.toSeq).toSeq
    assert(other != rows(1))
  }

  test("columns keep the NEXMark-lite shape") {
    val rs = rows(4)
    val prices = rs.map(_(1).asInstanceOf[Long])
    assert(prices.min >= 1 && prices.max <= 10000)
    assert(rs.forall(_(2).asInstanceOf[String].matches("I[1-9][0-9]*")))
    val skews = rs.map(r => r(3).asInstanceOf[java.sql.Timestamp].getTime - r(0).asInstanceOf[java.sql.Timestamp].getTime)
    assert(skews.min >= 0)
    val mean = skews.sum.toDouble / skews.size
    assert(mean > 100000 && mean < 140000, s"mean skew $mean ms, expected about 120000")
  }

  test("coarse ticks give exactly that many arrival times, none before its event") {
    val rs = rows(2, ticks = 4)
    assert(rs.map(r => r(3).asInstanceOf[java.sql.Timestamp].getTime).distinct.sorted ==
      (1 to 4).map(_ * Gen.tickMs(5000, 1000L, 4)))
    assert(rs.forall(r => !r(3).asInstanceOf[java.sql.Timestamp].before(r(0).asInstanceOf[java.sql.Timestamp])))
  }
}
