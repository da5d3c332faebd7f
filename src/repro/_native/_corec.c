/* Compiled hot core for the repro simulator.
 *
 * Three measured hot spots, each a byte-identical drop-in for its pure
 * Python counterpart (goldens in tests/perf_golden/ gate equivalence).
 * Each one moves an end-to-end perfbench number; twins that did not
 * were deleted (EXPERIMENTS.md, "Compiled-core audit"):
 *
 *   1. the event-loop heap scheduling core (repro.sim.engine)
 *   2. the RFC 1071 Internet checksum (repro.checksum.internet)
 *   3. mbuf chain copy/slice/span paths (repro.mem.mbuf)
 *
 * The module is import-selected once by repro.perf.native (honouring
 * REPRO_NATIVE=0|1); nothing else may import repro._native directly —
 * `repro lint` enforces the layering rule.
 *
 * Exception classes and sentinels are *installed* from Python at import
 * time (engine_install / mbuf_install) so every error raised here is
 * the exact class — and carries the exact message — the pure
 * implementation raises.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

/* Py_SETREF is only public API from 3.12; provide our own. */
#define REPRO_SETREF(dst, src)                  \
    do {                                        \
        PyObject *_tmp = (PyObject *)(dst);     \
        (dst) = (src);                          \
        Py_XDECREF(_tmp);                       \
    } while (0)

/* Compaction constants; must match repro.sim.engine. */
#define COMPACT_MASK 0xFFF
#define COMPACT_MIN 64

/* ---------------------------------------------------------------- */
/* Installed Python objects (engine_install / mbuf_install fill     */
/* these in at import time).                                        */
/* ---------------------------------------------------------------- */

static PyObject *g_pending;           /* Event._PENDING sentinel */
static PyObject *g_scheduling_error;  /* repro.sim.errors.SchedulingError */
static PyObject *g_deadlock;          /* repro.sim.errors.Deadlock */
static PyObject *g_mbuf_error;        /* repro.mem.mbuf.MbufError */

static PyObject *g_empty_tuple;
static PyObject *g_zero;

/* Interned attribute/method names. */
static PyObject *s_on_schedule, *s_on_dispatch, *s_value, *s_exc,
    *s_freed, *s_cluster, *s_underdata, *s_data, *s_cancelled;

static int
ensure_engine_installed(void)
{
    if (g_pending == NULL || g_scheduling_error == NULL ||
        g_deadlock == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "engine_install() has not been called");
        return -1;
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* ScheduledCall twin                                                */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long time;       /* dispatch time, ns (the tuple's slot 0) */
    long long key_ll;     /* tie-break key when it fits in 64 bits */
    int key_fits;         /* key_ll is valid */
    char cancelled;
    PyObject *key;        /* the Python tie-break key object */
    PyObject *fn;
    PyObject *args;
} CallObject;

static PyTypeObject CallType;

static void
Call_dealloc(CallObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->key);
    Py_XDECREF(self->fn);
    Py_XDECREF(self->args);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Call_traverse(CallObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->key);
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    return 0;
}

static int
Call_clear(CallObject *self)
{
    Py_CLEAR(self->key);
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    return 0;
}

static PyObject *
Call_cancel(CallObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    /* Drop references eagerly so cancelled chains do not pin memory
     * (mirrors ScheduledCall.cancel). */
    Py_INCREF(Py_None);
    REPRO_SETREF(self->fn, Py_None);
    Py_INCREF(g_empty_tuple);
    REPRO_SETREF(self->args, g_empty_tuple);
    Py_RETURN_NONE;
}

static PyObject *
Call_get_time(CallObject *self, void *closure)
{
    return PyLong_FromLongLong(self->time);
}

static PyMethodDef Call_methods[] = {
    {"cancel", (PyCFunction)Call_cancel, METH_NOARGS,
     "Prevent the callback from running.  Idempotent."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Call_getset[] = {
    {"time", (getter)Call_get_time, NULL, "dispatch time (ns)", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef Call_members[] = {
    {"fn", T_OBJECT_EX, offsetof(CallObject, fn), 0, "callback"},
    {"args", T_OBJECT_EX, offsetof(CallObject, args), 0, "callback args"},
    {"cancelled", T_BOOL, offsetof(CallObject, cancelled), READONLY,
     "whether cancel() has been called"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CallType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._corec.ScheduledCall",
    .tp_basicsize = sizeof(CallObject),
    .tp_dealloc = (destructor)Call_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled handle for a callback in the event queue.",
    .tp_traverse = (traverseproc)Call_traverse,
    .tp_clear = (inquiry)Call_clear,
    .tp_methods = Call_methods,
    .tp_getset = Call_getset,
    .tp_members = Call_members,
    .tp_free = PyObject_GC_Del,
};

/* ---------------------------------------------------------------- */
/* Heap primitives over a plain Python list of (time, key, call)     */
/* tuples.  The list object itself is the simulator's queue — tests  */
/* and the compaction path hold direct references to it, so every    */
/* operation mutates it in place exactly as heapq does.  Comparisons */
/* read the CallObject's C fields directly; (time, key) is a strict  */
/* total order (keys are unique), so pop order is identical to the   */
/* pure heapq's regardless of internal layout.                       */
/* ---------------------------------------------------------------- */

static int
entry_lt(PyObject *v, PyObject *w)
{
    if (PyTuple_CheckExact(v) && PyTuple_CheckExact(w) &&
        PyTuple_GET_SIZE(v) == 3 && PyTuple_GET_SIZE(w) == 3) {
        PyObject *cv = PyTuple_GET_ITEM(v, 2);
        PyObject *cw = PyTuple_GET_ITEM(w, 2);
        if (Py_TYPE(cv) == &CallType && Py_TYPE(cw) == &CallType) {
            CallObject *a = (CallObject *)cv, *b = (CallObject *)cw;
            if (a->time != b->time)
                return a->time < b->time;
            if (a->key_fits && b->key_fits)
                return a->key_ll < b->key_ll;
            return PyObject_RichCompareBool(a->key, b->key, Py_LT);
        }
    }
    return PyObject_RichCompareBool(v, w, Py_LT);
}

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Py_ssize_t parentpos, size;
    PyObject *newitem, *parent;
    int cmp;

    size = PyList_GET_SIZE(heap);
    while (pos > startpos) {
        parentpos = (pos - 1) >> 1;
        newitem = PyList_GET_ITEM(heap, pos);
        parent = PyList_GET_ITEM(heap, parentpos);
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during heap operation");
            return -1;
        }
        if (cmp == 0)
            break;
        parent = PyList_GET_ITEM(heap, parentpos);
        newitem = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, parentpos, newitem);
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, endpos, childpos, limit;
    PyObject *tmp1, *tmp2;
    int cmp;

    endpos = PyList_GET_SIZE(heap);
    limit = endpos >> 1;
    while (pos < limit) {
        childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            PyObject *a = PyList_GET_ITEM(heap, childpos);
            PyObject *b = PyList_GET_ITEM(heap, childpos + 1);
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            childpos += ((unsigned)cmp ^ 1);
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during heap operation");
                return -1;
            }
        }
        tmp1 = PyList_GET_ITEM(heap, childpos);
        tmp2 = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, childpos, tmp2);
        PyList_SET_ITEM(heap, pos, tmp1);
        pos = childpos;
    }
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Pop and return the smallest entry (new reference); heap must be
 * non-empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last, *returnitem;

    last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0)
        return last;
    returnitem = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

static int
heap_heapify(PyObject *heap)
{
    Py_ssize_t i;
    for (i = PyList_GET_SIZE(heap) / 2 - 1; i >= 0; i--) {
        if (heap_siftup(heap, i) < 0)
            return -1;
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* EngineCore: the simulator's clock, heap and dispatch loops       */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long now;
    long long seq_next;
    long long events_executed;
    PyObject *queue;   /* list of (time, key, call) tuples */
    PyObject *keyfn;   /* tie-break key function or None */
    PyObject *hooks;   /* SimHooks instance or None */
} CoreObject;

static PyTypeObject CoreType;

static int
Core_init(CoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *keyfn = Py_None;
    static char *kwlist[] = {"keyfn", NULL};

    if (ensure_engine_installed() < 0)
        return -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &keyfn))
        return -1;
    Py_XDECREF(self->queue);
    Py_XDECREF(self->keyfn);
    Py_XDECREF(self->hooks);
    self->queue = PyList_New(0);
    if (self->queue == NULL)
        return -1;
    Py_INCREF(keyfn);
    self->keyfn = keyfn;
    Py_INCREF(Py_None);
    self->hooks = Py_None;
    self->now = 0;
    self->seq_next = 0;
    self->events_executed = 0;
    return 0;
}

static void
Core_dealloc(CoreObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->queue);
    Py_XDECREF(self->keyfn);
    Py_XDECREF(self->hooks);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->queue);
    Py_VISIT(self->keyfn);
    Py_VISIT(self->hooks);
    return 0;
}

static int
Core_clear_gc(CoreObject *self)
{
    Py_CLEAR(self->queue);
    Py_CLEAR(self->keyfn);
    Py_CLEAR(self->hooks);
    return 0;
}

static int
core_compact(CoreObject *self)
{
    PyObject *queue = self->queue;
    Py_ssize_t n = PyList_GET_SIZE(queue);
    Py_ssize_t i;
    PyObject *live;

    if (n < COMPACT_MIN)
        return 0;
    live = PyList_New(0);
    if (live == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *entry = PyList_GET_ITEM(queue, i);
        PyObject *callobj = PyTuple_GET_ITEM(entry, 2);
        int dead;
        if (Py_TYPE(callobj) == &CallType) {
            dead = ((CallObject *)callobj)->cancelled;
        } else {
            PyObject *flag = PyObject_GetAttr(callobj, s_cancelled);
            if (flag == NULL)
                goto fail;
            dead = PyObject_IsTrue(flag);
            Py_DECREF(flag);
            if (dead < 0)
                goto fail;
        }
        if (!dead && PyList_Append(live, entry) < 0)
            goto fail;
    }
    if (PyList_GET_SIZE(live) * 2 <= n) {
        if (PyList_SetSlice(queue, 0, n, live) < 0)
            goto fail;
        if (heap_heapify(queue) < 0)
            goto fail;
    }
    Py_DECREF(live);
    return 0;
fail:
    Py_DECREF(live);
    return -1;
}

static PyObject *
sched_err_negative(PyObject *delay)
{
    PyObject *msg = PyUnicode_FromFormat("negative delay: %S", delay);
    if (msg != NULL) {
        PyErr_SetObject(g_scheduling_error, msg);
        Py_DECREF(msg);
    }
    return NULL;
}

static int
err_backwards(void)
{
    PyObject *msg = PyUnicode_FromString(
        "event queue went backwards in time");
    if (msg != NULL) {
        PyErr_SetObject(g_scheduling_error, msg);
        Py_DECREF(msg);
    }
    return -1;
}

static int
err_deadlock(PyObject *event)
{
    PyObject *msg = PyUnicode_FromFormat(
        "event queue drained; %R never triggered", event);
    if (msg != NULL) {
        PyErr_SetObject(g_deadlock, msg);
        Py_DECREF(msg);
    }
    return -1;
}

static PyObject *
Core_schedule(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long delay_ll, seq, key_ll, time_ll;
    int key_fits, overflow;
    PyObject *key_obj, *cargs, *time_obj, *entry;
    CallObject *call;
    Py_ssize_t i;

    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() requires a delay and a callable");
        return NULL;
    }
    PyObject *delay = args[0];
    if (PyLong_CheckExact(delay)) {
        delay_ll = PyLong_AsLongLongAndOverflow(delay, &overflow);
        if (overflow) {
            PyErr_SetString(PyExc_OverflowError,
                            "delay out of native range");
            return NULL;
        }
        if (delay_ll == -1 && PyErr_Occurred())
            return NULL;
        if (delay_ll < 0)
            return sched_err_negative(delay);
    }
    else {
        int neg = PyObject_RichCompareBool(delay, g_zero, Py_LT);
        if (neg < 0)
            return NULL;
        if (neg)
            return sched_err_negative(delay);
        PyObject *num = PyNumber_Long(delay);
        if (num == NULL)
            return NULL;
        delay_ll = PyLong_AsLongLongAndOverflow(num, &overflow);
        Py_DECREF(num);
        if (overflow) {
            PyErr_SetString(PyExc_OverflowError,
                            "delay out of native range");
            return NULL;
        }
        if (delay_ll == -1 && PyErr_Occurred())
            return NULL;
    }

    seq = self->seq_next;
    self->seq_next = seq + 1;

    if (self->keyfn == Py_None) {
        key_ll = seq;
        key_fits = 1;
        key_obj = PyLong_FromLongLong(seq);
        if (key_obj == NULL)
            return NULL;
    }
    else {
        PyObject *seq_obj = PyLong_FromLongLong(seq);
        if (seq_obj == NULL)
            return NULL;
        key_obj = PyObject_CallOneArg(self->keyfn, seq_obj);
        Py_DECREF(seq_obj);
        if (key_obj == NULL)
            return NULL;
        if (PyLong_Check(key_obj)) {
            key_ll = PyLong_AsLongLongAndOverflow(key_obj, &overflow);
            if (key_ll == -1 && !overflow && PyErr_Occurred()) {
                Py_DECREF(key_obj);
                return NULL;
            }
            key_fits = !overflow;
            if (overflow)
                key_ll = 0;
        }
        else {
            key_fits = 0;
            key_ll = 0;
        }
    }

    time_ll = self->now + delay_ll;

    cargs = PyTuple_New(nargs - 2);
    if (cargs == NULL) {
        Py_DECREF(key_obj);
        return NULL;
    }
    for (i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(cargs, i - 2, args[i]);
    }
    call = PyObject_GC_New(CallObject, &CallType);
    if (call == NULL) {
        Py_DECREF(cargs);
        Py_DECREF(key_obj);
        return NULL;
    }
    call->time = time_ll;
    call->key_ll = key_ll;
    call->key_fits = key_fits;
    call->cancelled = 0;
    call->key = key_obj;                 /* steals */
    Py_INCREF(args[1]);
    call->fn = args[1];
    call->args = cargs;                  /* steals */
    PyObject_GC_Track((PyObject *)call);

    time_obj = PyLong_FromLongLong(time_ll);
    if (time_obj == NULL) {
        Py_DECREF(call);
        return NULL;
    }
    entry = PyTuple_New(3);
    if (entry == NULL) {
        Py_DECREF(time_obj);
        Py_DECREF(call);
        return NULL;
    }
    PyTuple_SET_ITEM(entry, 0, time_obj);
    Py_INCREF(call->key);
    PyTuple_SET_ITEM(entry, 1, call->key);
    Py_INCREF(call);
    PyTuple_SET_ITEM(entry, 2, (PyObject *)call);
    if (heap_push(self->queue, entry) < 0) {
        Py_DECREF(entry);
        Py_DECREF(call);
        return NULL;
    }
    Py_DECREF(entry);

    if (!(seq & COMPACT_MASK)) {
        if (core_compact(self) < 0) {
            Py_DECREF(call);
            return NULL;
        }
    }
    if (self->hooks != Py_None) {
        PyObject *now_obj = PyLong_FromLongLong(self->now);
        PyObject *r;
        if (now_obj == NULL) {
            Py_DECREF(call);
            return NULL;
        }
        r = PyObject_CallMethodObjArgs(self->hooks, s_on_schedule,
                                       now_obj, (PyObject *)call, NULL);
        Py_DECREF(now_obj);
        if (r == NULL) {
            Py_DECREF(call);
            return NULL;
        }
        Py_DECREF(r);
    }
    return (PyObject *)call;
}

/* Dispatch the head event through call->fn(*call->args); -1 error. */
static int
core_dispatch(CoreObject *self, CallObject *call, long long time)
{
    PyObject *fn, *cargs, *res;

    if (time < self->now)
        return err_backwards();
    self->now = time;
    self->events_executed += 1;
    fn = call->fn;
    cargs = call->args;
    Py_INCREF(fn);
    Py_INCREF(cargs);
    res = PyObject_Call(fn, cargs, NULL);
    Py_DECREF(fn);
    Py_DECREF(cargs);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
core_on_dispatch_hook(CoreObject *self, CallObject *call, long long time)
{
    PyObject *t, *r;

    t = PyLong_FromLongLong(time);
    if (t == NULL)
        return -1;
    r = PyObject_CallMethodObjArgs(self->hooks, s_on_dispatch, t,
                                   (PyObject *)call, NULL);
    Py_DECREF(t);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* The single cancelled-entry skip point: execute the next live
 * callback.  Returns 1 if one ran, 0 on empty queue, -1 on error. */
static int
core_step_internal(CoreObject *self)
{
    PyObject *queue = self->queue;

    while (PyList_GET_SIZE(queue) > 0) {
        PyObject *entry = heap_pop(queue);
        CallObject *call;
        long long time;

        if (entry == NULL)
            return -1;
        call = (CallObject *)PyTuple_GET_ITEM(entry, 2);
        Py_INCREF(call);
        time = call->time;
        Py_DECREF(entry);
        if (call->cancelled) {
            Py_DECREF(call);
            continue;
        }
        if (time < self->now) {
            Py_DECREF(call);
            return err_backwards();
        }
        self->now = time;
        self->events_executed += 1;
        if (self->hooks != Py_None) {
            if (core_on_dispatch_hook(self, call, time) < 0) {
                Py_DECREF(call);
                return -1;
            }
        }
        {
            PyObject *fn = call->fn, *cargs = call->args, *res;
            Py_INCREF(fn);
            Py_INCREF(cargs);
            res = PyObject_Call(fn, cargs, NULL);
            Py_DECREF(fn);
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_DECREF(call);
                return -1;
            }
            Py_DECREF(res);
        }
        Py_DECREF(call);
        return 1;
    }
    return 0;
}

static PyObject *
Core_step(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    int r = core_step_internal(self);
    if (r < 0)
        return NULL;
    return PyBool_FromLong(r);
}

static PyObject *
Core_run_until(CoreObject *self, PyObject *until)
{
    long long until_ll;
    int overflow;
    PyObject *queue = self->queue;

    if (PyLong_Check(until)) {
        until_ll = PyLong_AsLongLongAndOverflow(until, &overflow);
        if (overflow) {
            PyErr_SetString(PyExc_OverflowError,
                            "until out of native range");
            return NULL;
        }
        if (until_ll == -1 && PyErr_Occurred())
            return NULL;
    }
    else {
        PyObject *num = PyNumber_Index(until);
        if (num == NULL)
            return NULL;
        until_ll = PyLong_AsLongLongAndOverflow(num, &overflow);
        Py_DECREF(num);
        if (overflow) {
            PyErr_SetString(PyExc_OverflowError,
                            "until out of native range");
            return NULL;
        }
        if (until_ll == -1 && PyErr_Occurred())
            return NULL;
    }
    if (until_ll < self->now) {
        PyObject *msg = PyUnicode_FromFormat(
            "until=%S is in the past", until);
        if (msg != NULL) {
            PyErr_SetObject(g_scheduling_error, msg);
            Py_DECREF(msg);
        }
        return NULL;
    }

    while (PyList_GET_SIZE(queue) > 0) {
        PyObject *entry = PyList_GET_ITEM(queue, 0);
        CallObject *call;
        long long time;
        PyObject *popped;

        Py_INCREF(entry);
        call = (CallObject *)PyTuple_GET_ITEM(entry, 2);
        Py_INCREF(call);
        if (call->cancelled) {
            popped = heap_pop(queue);
            if (popped == NULL) {
                Py_DECREF(call);
                Py_DECREF(entry);
                return NULL;
            }
            Py_DECREF(popped);
            Py_DECREF(call);
            Py_DECREF(entry);
            continue;
        }
        time = call->time;
        if (time > until_ll) {
            Py_DECREF(call);
            Py_DECREF(entry);
            break;
        }
        popped = heap_pop(queue);
        if (popped == NULL) {
            Py_DECREF(call);
            Py_DECREF(entry);
            return NULL;
        }
        Py_DECREF(popped);
        if (time < self->now) {
            Py_DECREF(call);
            Py_DECREF(entry);
            err_backwards();
            return NULL;
        }
        self->now = time;
        self->events_executed += 1;
        if (self->hooks != Py_None) {
            if (core_on_dispatch_hook(self, call, time) < 0) {
                Py_DECREF(call);
                Py_DECREF(entry);
                return NULL;
            }
        }
        {
            PyObject *fn = call->fn, *cargs = call->args, *res;
            Py_INCREF(fn);
            Py_INCREF(cargs);
            res = PyObject_Call(fn, cargs, NULL);
            Py_DECREF(fn);
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_DECREF(call);
                Py_DECREF(entry);
                return NULL;
            }
            Py_DECREF(res);
        }
        Py_DECREF(call);
        Py_DECREF(entry);
    }
    self->now = until_ll;
    Py_RETURN_NONE;
}

static PyObject *
Core_run_all(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *queue = self->queue;

    for (;;) {
        if (self->hooks != Py_None) {
            /* Hooks installed (possibly mid-run): take the fully-
             * guarded path for the remaining events. */
            for (;;) {
                int r = core_step_internal(self);
                if (r < 0)
                    return NULL;
                if (r == 0)
                    Py_RETURN_NONE;
            }
        }
        if (PyList_GET_SIZE(queue) == 0)
            break;
        {
            PyObject *entry = heap_pop(queue);
            CallObject *call;
            long long time;

            if (entry == NULL)
                return NULL;
            call = (CallObject *)PyTuple_GET_ITEM(entry, 2);
            Py_INCREF(call);
            time = call->time;
            Py_DECREF(entry);
            if (!call->cancelled && core_dispatch(self, call, time) < 0) {
                Py_DECREF(call);
                return NULL;
            }
            Py_DECREF(call);
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Core_run_until_triggered(CoreObject *self, PyObject *event)
{
    PyObject *queue = self->queue;

    for (;;) {
        PyObject *v, *e;
        int still_pending;

        v = PyObject_GetAttr(event, s_value);
        if (v == NULL)
            return NULL;
        still_pending = (v == g_pending);
        Py_DECREF(v);
        if (still_pending) {
            e = PyObject_GetAttr(event, s_exc);
            if (e == NULL)
                return NULL;
            still_pending = (e == Py_None);
            Py_DECREF(e);
        }
        if (!still_pending)
            break;

        if (self->hooks != Py_None) {
            int r = core_step_internal(self);
            if (r < 0)
                return NULL;
            if (r == 0) {
                err_deadlock(event);
                return NULL;
            }
            continue;
        }

        /* Hooks-off fast loop: pop to the next live entry. */
        {
            CallObject *call = NULL;
            long long time = 0;

            for (;;) {
                PyObject *entry;
                if (PyList_GET_SIZE(queue) == 0) {
                    err_deadlock(event);
                    return NULL;
                }
                entry = heap_pop(queue);
                if (entry == NULL)
                    return NULL;
                call = (CallObject *)PyTuple_GET_ITEM(entry, 2);
                Py_INCREF(call);
                time = call->time;
                Py_DECREF(entry);
                if (!call->cancelled)
                    break;
                Py_DECREF(call);
            }
            if (core_dispatch(self, call, time) < 0) {
                Py_DECREF(call);
                return NULL;
            }
            Py_DECREF(call);
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Core_maybe_compact(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (core_compact(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_get_now(CoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Core_get_events_executed(CoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->events_executed);
}

static PyObject *
Core_get_queue(CoreObject *self, void *closure)
{
    Py_INCREF(self->queue);
    return self->queue;
}

static PyObject *
Core_get_hooks(CoreObject *self, void *closure)
{
    Py_INCREF(self->hooks);
    return self->hooks;
}

static int
Core_set_hooks(CoreObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete hooks");
        return -1;
    }
    Py_INCREF(value);
    REPRO_SETREF(self->hooks, value);
    return 0;
}

static PyMethodDef Core_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Core_schedule,
     METH_FASTCALL, "schedule(delay_ns, fn, *args) -> ScheduledCall"},
    {"step", (PyCFunction)Core_step, METH_NOARGS,
     "Execute the next non-cancelled callback; False when empty."},
    {"run_all", (PyCFunction)Core_run_all, METH_NOARGS,
     "Drain the queue."},
    {"run_until", (PyCFunction)Core_run_until, METH_O,
     "Run until the clock reaches the deadline."},
    {"run_until_triggered", (PyCFunction)Core_run_until_triggered,
     METH_O, "Run until the event triggers."},
    {"maybe_compact", (PyCFunction)Core_maybe_compact, METH_NOARGS,
     "Drop lazily-cancelled heap entries once they are the majority."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Core_getset[] = {
    {"now", (getter)Core_get_now, NULL,
     "current simulated time (ns)", NULL},
    {"events_executed", (getter)Core_get_events_executed, NULL,
     "callbacks executed so far", NULL},
    {"queue", (getter)Core_get_queue, NULL,
     "the (time, key, call) heap list", NULL},
    {"hooks", (getter)Core_get_hooks, (setter)Core_set_hooks,
     "observability hooks or None", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._corec.EngineCore",
    .tp_basicsize = sizeof(CoreObject),
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event-loop core (clock + heap).",
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear_gc,
    .tp_methods = Core_methods,
    .tp_getset = Core_getset,
    .tp_init = (initproc)Core_init,
    .tp_new = PyType_GenericNew,
    .tp_free = PyObject_GC_Del,
};

/* ---------------------------------------------------------------- */
/* RFC 1071 Internet checksum                                        */
/* ---------------------------------------------------------------- */

static unsigned long long
rawsum_buf(const unsigned char *p, Py_ssize_t n)
{
    unsigned long long total = 0;
    Py_ssize_t i, even = n & ~(Py_ssize_t)1;

    for (i = 0; i < even; i += 2)
        total += ((unsigned long long)p[i] << 8) | p[i + 1];
    if (n & 1)
        total += (unsigned long long)p[n - 1] << 8;
    return total;
}

static unsigned long long
fold_u64(unsigned long long total)
{
    while (total > 0xFFFF)
        total = (total & 0xFFFF) + (total >> 16);
    return total;
}

static PyObject *
mod_raw_sum(PyObject *Py_UNUSED(module), PyObject *data)
{
    Py_buffer buf;
    unsigned long long total;

    if (PyObject_GetBuffer(data, &buf, PyBUF_SIMPLE) < 0)
        return NULL;
    total = rawsum_buf((const unsigned char *)buf.buf, buf.len);
    PyBuffer_Release(&buf);
    return PyLong_FromUnsignedLongLong(total);
}

/* Extract (data, initial=...) from a fastcall-with-keywords frame.
 * Mirrors the pure signatures `f(data, initial=0)`. */
static int
parse_data_initial(PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames, const char *name,
                   PyObject **data, PyObject **initial_obj)
{
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0, i;

    *data = NULL;
    *initial_obj = NULL;
    if (nargs > 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes data and an optional initial value", name);
        return -1;
    }
    if (nargs >= 1)
        *data = args[0];
    if (nargs == 2)
        *initial_obj = args[1];
    for (i = 0; i < nkw; i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);
        PyObject *val = args[nargs + i];
        PyObject **slot;

        if (PyUnicode_CompareWithASCIIString(key, "data") == 0)
            slot = data;
        else if (PyUnicode_CompareWithASCIIString(key, "initial") == 0)
            slot = initial_obj;
        else {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected keyword argument %R",
                         name, key);
            return -1;
        }
        if (*slot != NULL) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got multiple values for argument %R",
                         name, key);
            return -1;
        }
        *slot = val;
    }
    if (*data == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s() missing required argument 'data'", name);
        return -1;
    }
    return 0;
}

static PyObject *
mod_internet_checksum(PyObject *Py_UNUSED(module), PyObject *const *args,
                      Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *data, *initial_obj;
    Py_buffer buf;
    unsigned long long initial = 0, total;

    if (parse_data_initial(args, nargs, kwnames, "internet_checksum",
                           &data, &initial_obj) < 0)
        return NULL;
    if (initial_obj != NULL) {
        initial = PyLong_AsUnsignedLongLong(initial_obj);
        if (initial == (unsigned long long)-1 && PyErr_Occurred())
            return NULL;
    }
    if (PyObject_GetBuffer(data, &buf, PyBUF_SIMPLE) < 0)
        return NULL;
    total = rawsum_buf((const unsigned char *)buf.buf, buf.len) + initial;
    PyBuffer_Release(&buf);
    return PyLong_FromUnsignedLong(
        (unsigned long)(~fold_u64(total) & 0xFFFF));
}

/* ---------------------------------------------------------------- */
/* Mbuf chain helpers                                                */
/* ---------------------------------------------------------------- */

static int
ensure_mbuf_installed(void)
{
    if (g_mbuf_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "mbuf_install() has not been called");
        return -1;
    }
    return 0;
}

/* The Mbuf.data property, reading the slots directly; a freed mbuf is
 * routed back through the Python property so the exact use-after-free
 * diagnostics (including sanitizer provenance) are raised. */
static PyObject *
mbuf_get_data(PyObject *m)
{
    PyObject *freed, *cluster, *d;
    int is_freed;

    freed = PyObject_GetAttr(m, s_freed);
    if (freed == NULL)
        return NULL;
    is_freed = PyObject_IsTrue(freed);
    Py_DECREF(freed);
    if (is_freed < 0)
        return NULL;
    if (is_freed)
        return PyObject_GetAttr(m, s_data);
    cluster = PyObject_GetAttr(m, s_cluster);
    if (cluster == NULL)
        return NULL;
    if (cluster == Py_None) {
        Py_DECREF(cluster);
        d = PyObject_GetAttr(m, s_underdata);
    }
    else {
        d = PyObject_GetAttr(cluster, s_data);
        Py_DECREF(cluster);
    }
    return d;
}

/* Collect each mbuf's data object into a fresh list (raising any
 * use-after-free in chain order) and return the total byte length. */
static PyObject *
chain_collect(PyObject *mbufs, Py_ssize_t *total)
{
    PyObject *fast, *datas;
    Py_ssize_t n, i;

    fast = PySequence_Fast(mbufs, "expected a sequence of mbufs");
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    datas = PyList_New(n);
    if (datas == NULL) {
        Py_DECREF(fast);
        return NULL;
    }
    *total = 0;
    for (i = 0; i < n; i++) {
        PyObject *d = mbuf_get_data(PySequence_Fast_GET_ITEM(fast, i));
        Py_ssize_t len;

        if (d == NULL)
            goto fail;
        len = PyObject_Length(d);
        if (len < 0) {
            Py_DECREF(d);
            goto fail;
        }
        *total += len;
        PyList_SET_ITEM(datas, i, d);
    }
    Py_DECREF(fast);
    return datas;
fail:
    Py_DECREF(fast);
    Py_DECREF(datas);
    return NULL;
}

static PyObject *
mod_chain_length(PyObject *Py_UNUSED(module), PyObject *mbufs)
{
    Py_ssize_t total;
    PyObject *datas = chain_collect(mbufs, &total);

    if (datas == NULL)
        return NULL;
    Py_DECREF(datas);
    return PyLong_FromSsize_t(total);
}

static PyObject *
datas_to_bytes(PyObject *datas, Py_ssize_t total)
{
    PyObject *result = PyBytes_FromStringAndSize(NULL, total);
    char *out;
    Py_ssize_t i, n, pos = 0;

    if (result == NULL)
        return NULL;
    out = PyBytes_AS_STRING(result);
    n = PyList_GET_SIZE(datas);
    for (i = 0; i < n; i++) {
        Py_buffer buf;
        if (PyObject_GetBuffer(PyList_GET_ITEM(datas, i), &buf,
                               PyBUF_SIMPLE) < 0) {
            Py_DECREF(result);
            return NULL;
        }
        memcpy(out + pos, buf.buf, buf.len);
        pos += buf.len;
        PyBuffer_Release(&buf);
    }
    return result;
}

static PyObject *
mod_chain_to_bytes(PyObject *Py_UNUSED(module), PyObject *mbufs)
{
    Py_ssize_t total;
    PyObject *datas = chain_collect(mbufs, &total);
    PyObject *result;

    if (datas == NULL)
        return NULL;
    result = datas_to_bytes(datas, total);
    Py_DECREF(datas);
    return result;
}

static PyObject *
mod_chain_slice(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *mbufs, *datas, *joined, *result;
    Py_ssize_t offset, length, total;

    if (ensure_mbuf_installed() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "Onn", &mbufs, &offset, &length))
        return NULL;
    /* Total length first: a freed mbuf raises use-after-free before
     * the bounds check, exactly as the pure property access order. */
    datas = chain_collect(mbufs, &total);
    if (datas == NULL)
        return NULL;
    if (offset < 0 || length < 0 || offset + length > total) {
        PyObject *msg = PyUnicode_FromFormat(
            "slice [%zd:%zd] outside chain of %zd bytes",
            offset, offset + length, total);
        Py_DECREF(datas);
        if (msg != NULL) {
            PyErr_SetObject(g_mbuf_error, msg);
            Py_DECREF(msg);
        }
        return NULL;
    }
    joined = datas_to_bytes(datas, total);
    Py_DECREF(datas);
    if (joined == NULL)
        return NULL;
    result = PyBytes_FromStringAndSize(
        PyBytes_AS_STRING(joined) + offset, length);
    Py_DECREF(joined);
    return result;
}

static PyObject *
mod_chain_spans(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *mbufs, *fast = NULL, *datas = NULL, *result = NULL;
    Py_ssize_t offset, length, total, n, i, pos, remaining;

    if (ensure_mbuf_installed() < 0)
        return NULL;
    if (!PyArg_ParseTuple(args, "Onn", &mbufs, &offset, &length))
        return NULL;
    datas = chain_collect(mbufs, &total);
    if (datas == NULL)
        return NULL;
    if (offset < 0 || length < 0 || offset + length > total) {
        Py_DECREF(datas);
        PyErr_SetString(g_mbuf_error, "span outside chain");
        return NULL;
    }
    fast = PySequence_Fast(mbufs, "expected a sequence of mbufs");
    if (fast == NULL) {
        Py_DECREF(datas);
        return NULL;
    }
    result = PyList_New(0);
    if (result == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(fast);
    pos = 0;
    remaining = length;
    for (i = 0; i < n; i++) {
        PyObject *m = PySequence_Fast_GET_ITEM(fast, i);
        Py_ssize_t mlen = PyObject_Length(PyList_GET_ITEM(datas, i));
        Py_ssize_t start, take;
        PyObject *triple;

        if (mlen < 0) {
            Py_CLEAR(result);
            goto done;
        }
        if (remaining == 0)
            break;
        if (pos + mlen <= offset) {
            pos += mlen;
            continue;
        }
        start = offset - pos;
        if (start < 0)
            start = 0;
        take = mlen - start;
        if (take > remaining)
            take = remaining;
        triple = Py_BuildValue("(Onn)", m, start, take);
        if (triple == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        if (PyList_Append(result, triple) < 0) {
            Py_DECREF(triple);
            Py_CLEAR(result);
            goto done;
        }
        Py_DECREF(triple);
        remaining -= take;
        pos += mlen;
    }
done:
    Py_XDECREF(fast);
    Py_XDECREF(datas);
    return result;
}

static PyObject *
mod_chunk_sizes(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_ssize_t total, unit, remaining, take;
    PyObject *sizes, *num;

    if (!PyArg_ParseTuple(args, "nn", &total, &unit))
        return NULL;
    sizes = PyList_New(0);
    if (sizes == NULL)
        return NULL;
    if (total == 0) {
        num = PyLong_FromLong(0);
        if (num == NULL || PyList_Append(sizes, num) < 0) {
            Py_XDECREF(num);
            Py_DECREF(sizes);
            return NULL;
        }
        Py_DECREF(num);
        return sizes;
    }
    remaining = total;
    while (remaining > 0) {
        take = unit < remaining ? unit : remaining;
        num = PyLong_FromSsize_t(take);
        if (num == NULL || PyList_Append(sizes, num) < 0) {
            Py_XDECREF(num);
            Py_DECREF(sizes);
            return NULL;
        }
        Py_DECREF(num);
        remaining -= take;
    }
    return sizes;
}

/* ---------------------------------------------------------------- */
/* Install hooks + module definition                                 */
/* ---------------------------------------------------------------- */

static PyObject *
mod_engine_install(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *pending, *sched_err, *deadlock;

    if (!PyArg_ParseTuple(args, "OOO", &pending, &sched_err, &deadlock))
        return NULL;
    Py_INCREF(pending);
    REPRO_SETREF(g_pending, pending);
    Py_INCREF(sched_err);
    REPRO_SETREF(g_scheduling_error, sched_err);
    Py_INCREF(deadlock);
    REPRO_SETREF(g_deadlock, deadlock);
    Py_RETURN_NONE;
}

static PyObject *
mod_mbuf_install(PyObject *Py_UNUSED(module), PyObject *mbuf_error)
{
    Py_INCREF(mbuf_error);
    REPRO_SETREF(g_mbuf_error, mbuf_error);
    Py_RETURN_NONE;
}

static PyMethodDef corec_methods[] = {
    {"engine_install", mod_engine_install, METH_VARARGS,
     "engine_install(pending, SchedulingError, Deadlock)"},
    {"mbuf_install", mod_mbuf_install, METH_O,
     "mbuf_install(MbufError)"},
    {"raw_sum", mod_raw_sum, METH_O,
     "Unfolded 16-bit big-endian word sum of a buffer."},
    {"internet_checksum",
     (PyCFunction)(void (*)(void))mod_internet_checksum,
     METH_FASTCALL | METH_KEYWORDS,
     "internet_checksum(data, initial=0) -> int"},
    {"chain_length", mod_chain_length, METH_O,
     "Total data bytes across a list of mbufs."},
    {"chain_to_bytes", mod_chain_to_bytes, METH_O,
     "Concatenate a list of mbufs' data."},
    {"chain_slice", mod_chain_slice, METH_VARARGS,
     "chain_slice(mbufs, offset, length) -> bytes"},
    {"chain_spans", mod_chain_spans, METH_VARARGS,
     "chain_spans(mbufs, offset, length) -> [(mbuf, start, take)]"},
    {"chunk_sizes", mod_chunk_sizes, METH_VARARGS,
     "chunk_sizes(total, unit) -> [int]"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._corec",
    "Compiled hot core: event loop, Internet checksum, mbuf chains.",
    -1,
    corec_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    PyObject *m;

    if (PyType_Ready(&CallType) < 0)
        return NULL;
    if (PyType_Ready(&CoreType) < 0)
        return NULL;

    g_empty_tuple = PyTuple_New(0);
    g_zero = PyLong_FromLong(0);
    if (g_empty_tuple == NULL || g_zero == NULL)
        return NULL;

#define INTERN(var, text)                       \
    do {                                        \
        (var) = PyUnicode_InternFromString(text); \
        if ((var) == NULL)                      \
            return NULL;                        \
    } while (0)
    INTERN(s_on_schedule, "on_schedule");
    INTERN(s_on_dispatch, "on_dispatch");
    INTERN(s_value, "_value");
    INTERN(s_exc, "_exc");
    INTERN(s_freed, "freed");
    INTERN(s_cluster, "cluster");
    INTERN(s_underdata, "_data");
    INTERN(s_data, "data");
    INTERN(s_cancelled, "cancelled");
#undef INTERN

    m = PyModule_Create(&corec_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CallType);
    if (PyModule_AddObject(m, "ScheduledCall",
                           (PyObject *)&CallType) < 0) {
        Py_DECREF(&CallType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(m, "EngineCore", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
