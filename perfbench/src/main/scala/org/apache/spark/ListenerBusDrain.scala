package org.apache.spark

/** Waits until every Spark listener has seen the events posted so far, so
  * counters read at a span boundary include the span's last job and task.
  * Lives in Spark's package because the listener bus is `private[spark]`.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
