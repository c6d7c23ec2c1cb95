/* Compiled second-order sigma-delta inner loop.
 *
 * Must stay operation-for-operation identical to pure.py (same
 * expressions, same association order) so the two backends produce
 * bit-identical streams.  The loop only adds, subtracts and compares, so
 * no compiler flag (FMA contraction included) can change its rounding.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Fetch a 1-D C-contiguous buffer whose items have struct code `code`
 * ("d" or "B", optionally in native '@' or '=' order).  Returns 0 on
 * success; on failure sets ValueError (or the exporter's error), holds no
 * buffer and returns -1. */
static int
get_vector(PyObject *obj, Py_buffer *view, const char *name, char code, int flags)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *fmt = view->format;
    if (fmt[0] == '@' || fmt[0] == '=')
        fmt++;
    if (view->ndim != 1 || fmt[0] != code || fmt[1] != '\0') {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a 1-D buffer of format '%c', got %d-D '%s'",
                     name, code, view->ndim, view->format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
sigma_delta_bits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"x", "dither", "clip1", "clip2", "out", NULL};
    PyObject *x_obj, *dither_obj, *out_obj;
    double clip1, clip2;
    Py_buffer xb, db, ob;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOddO:sigma_delta_bits", keywords,
                                     &x_obj, &dither_obj, &clip1, &clip2, &out_obj))
        return NULL;
    if (get_vector(x_obj, &xb, "x", 'd', PyBUF_SIMPLE) < 0)
        return NULL;
    if (get_vector(dither_obj, &db, "dither", 'd', PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&xb);
        return NULL;
    }
    if (get_vector(out_obj, &ob, "out", 'B', PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&db);
        PyBuffer_Release(&xb);
        return NULL;
    }

    Py_ssize_t n = xb.shape[0];
    int equal_lengths = db.shape[0] == n && ob.shape[0] == n;
    if (equal_lengths) {
        const double *x = (const double *)xb.buf;
        const double *dither = (const double *)db.buf;
        unsigned char *out = (unsigned char *)ob.buf;
        double i1 = 0.0;
        double i2 = 0.0;
        double y = -1.0;

        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            i1 = i1 + x[i] - y;
            if (i1 > clip1)
                i1 = clip1;
            else if (i1 < -clip1)
                i1 = -clip1;
            i2 = i2 + i1 - y;
            if (i2 > clip2)
                i2 = clip2;
            else if (i2 < -clip2)
                i2 = -clip2;
            if (i2 + dither[i] >= 0.0) {
                y = 1.0;
                out[i] = 1;
            }
            else {
                y = -1.0;
                out[i] = 0;
            }
        }
        Py_END_ALLOW_THREADS
    }

    PyBuffer_Release(&ob);
    PyBuffer_Release(&db);
    PyBuffer_Release(&xb);
    if (!equal_lengths) {
        PyErr_SetString(PyExc_ValueError, "x, dither, and out must have equal lengths");
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef sdm_methods[] = {
    {"sigma_delta_bits", (PyCFunction)(void (*)(void))sigma_delta_bits,
     METH_VARARGS | METH_KEYWORDS,
     "sigma_delta_bits(x, dither, clip1, clip2, out)\n--\n\n"
     "Second-order sigma-delta modulation of ``x`` into 1-bit ``out``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sdm_module = {
    PyModuleDef_HEAD_INIT, "_sdm", "Compiled second-order sigma-delta inner loop.",
    -1, sdm_methods,
};

PyMODINIT_FUNC
PyInit__sdm(void)
{
    return PyModule_Create(&sdm_module);
}
