package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** One small local SparkSession shared by the benchmark's own tests. */
trait BenchSpark extends AnyFunSuite {
  lazy val spark: SparkSession = BenchSpark.shared
}

object BenchSpark {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master("local[2]")
      .appName("perfbench-test")
      .config("spark.sql.shuffle.partitions", 4L)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
