/* Compiled hot core for the repro simulator.
 *
 * Two measured hot spots, each a byte-identical drop-in for its pure
 * Python counterpart (goldens in tests/perf_golden/ gate equivalence).
 * Each one moves an end-to-end perfbench number; twins that did not
 * were deleted (EXPERIMENTS.md, "Compiled-core audit"):
 *
 *   1. the RFC 1071 Internet checksum (repro.checksum.internet)
 *   2. mbuf chain copy/slice/span paths (repro.mem.mbuf)
 *
 * The module is import-selected once by repro.perf.native (honouring
 * REPRO_NATIVE=0|1); nothing else may import repro._native directly —
 * `repro lint` enforces the layering rule.
 *
 * The mbuf error class is *installed* from Python at import time
 * (mbuf_install) so every error raised here is the exact class — and
 * carries the exact message — the pure implementation raises.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Py_SETREF is only public API from 3.12; provide our own. */
#define REPRO_SETREF(dst, src)                  \
    do {                                        \
        PyObject *_tmp = (PyObject *)(dst);     \
        (dst) = (src);                          \
        Py_XDECREF(_tmp);                       \
    } while (0)

/* Installed by mbuf_install at import time: repro.mem.mbuf.MbufError. */
static PyObject *g_mbuf_error;

/* Interned attribute names. */
static PyObject *s_freed, *s_cluster, *s_underdata, *s_data;

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
/* Install hook + module definition                                  */
/* ---------------------------------------------------------------- */

static PyObject *
mod_mbuf_install(PyObject *Py_UNUSED(module), PyObject *mbuf_error)
{
    Py_INCREF(mbuf_error);
    REPRO_SETREF(g_mbuf_error, mbuf_error);
    Py_RETURN_NONE;
}

static PyMethodDef corec_methods[] = {
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
    "Compiled hot core: Internet checksum, mbuf chains.",
    -1,
    corec_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
#define INTERN(var, text)                       \
    do {                                        \
        (var) = PyUnicode_InternFromString(text); \
        if ((var) == NULL)                      \
            return NULL;                        \
    } while (0)
    INTERN(s_freed, "freed");
    INTERN(s_cluster, "cluster");
    INTERN(s_underdata, "_data");
    INTERN(s_data, "data");
#undef INTERN

    return PyModule_Create(&corec_module);
}
